package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nsmac/internal/adversary"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// Case names an algorithm under sweep together with the knowledge it is
// granted and the horizon it is given per (n, k) cell.
type Case struct {
	// Name labels the case on the sweep's algo axis.
	Name string
	// Algo constructs the algorithm for a cell.
	Algo func(n, k int) model.Algorithm
	// Params grants the cell's knowledge (Scenario A/B/C switches).
	Params func(n, k int, seed uint64) model.Params
	// Horizon caps each trial for the cell.
	Horizon func(n, k int) int64
	// MaxK, when > 0, skips cells with k > MaxK (algorithms whose schedules
	// grow out of their feasible regime, e.g. LocalSSF's quadratic ladders).
	MaxK int
	// Adaptive runs the case's trials with sim.Options.Adaptive: the
	// algorithm builds feedback-driven stations instead of oblivious
	// schedules. Adaptive cases skip the white-box pattern families (spoiler,
	// swap), which probe an algorithm through its oblivious Build.
	Adaptive bool
}

// Spec is the declarative sweep: the cross product of Cases × Patterns ×
// Channels × Ns × Ks, Trials trials per cell, each trial running on the
// worker's pooled engine with a pattern drawn from the trial's derived
// stream.
type Spec struct {
	// Name labels the sweep in rendered output.
	Name string
	// Cases are the algorithms on the grid's algo axis.
	Cases []Case
	// Patterns are the adversary wake-pattern families.
	Patterns []adversary.Generator
	// Channels are the channel models on the grid's channel axis (resolve
	// entries with ResolveChannel). Empty keeps the paper's default channel
	// (model.None) and — for exact output compatibility with pre-channel
	// specs — omits the channel axis from the grid entirely.
	Channels []model.ChannelModel
	// Ns and Ks are the universe-size and awake-count axes; cells with
	// k > n are skipped.
	Ns, Ks []int
	// Trials is the per-cell trial count.
	Trials int
	// Seed keys the whole sweep.
	Seed uint64
	// Workers bounds the cell worker pool (<= 0 selects GOMAXPROCS).
	Workers int
	// DisableKernel steps every trial slot by slot (Engine.RunTo) instead
	// of letting Engine.Run finish the trials sim.ClosedForm admits
	// (tree_cd on none, ack, noisy and jam) in closed form. The output
	// bytes are the same either way; this switch exists for differential
	// testing and for benchmarking the stepped path.
	DisableKernel bool
}

// patternStream offsets the pattern draw from the algorithm-seed draw inside
// one trial stream, so the two stay independent.
const patternStream = 0x9a77e12

// PatternSeed returns the stream a spec trial draws its wake pattern from.
// Exposed so reference implementations (tests) can reproduce spec trials
// exactly.
func PatternSeed(trialSeed uint64) uint64 {
	return rng.Derive(trialSeed, patternStream)
}

// cellPoint is one enumerated spec cell. ch is nil when the spec declares no
// channel axis (the paper-default channel).
type cellPoint struct {
	c    Case
	gen  adversary.Generator
	ch   model.ChannelModel
	n, k int
}

// enumerate walks the spec's cross product in the documented order — cases
// outermost, then patterns, channels, ns, ks — returning the kept cells,
// their labels, and a description of every dropped combination (k > n, or k
// beyond a case's feasible regime). A spec without channels enumerates
// exactly the pre-channel cross product: same cell indices (and therefore
// the same derived trial seeds) and four-column labels.
func (s Spec) enumerate() (points []cellPoint, labels [][]string, skipped []string) {
	channels := s.Channels
	withChannel := len(channels) > 0
	if !withChannel {
		channels = []model.ChannelModel{nil}
	}
	for _, c := range s.Cases {
		for _, gen := range s.Patterns {
			for _, ch := range channels {
				at := fmt.Sprintf("%s×%s", c.Name, gen.Name)
				if withChannel {
					at = fmt.Sprintf("%s×%s", at, ch.Name())
				}
				if c.Adaptive && gen.WhiteBox() {
					// The white-box families probe the algorithm through its
					// oblivious Build, which an adaptive-only algorithm does
					// not implement.
					skipped = append(skipped,
						fmt.Sprintf("%s (white-box pattern needs an oblivious schedule; %s is adaptive)", at, c.Name))
					continue
				}
				for _, n := range s.Ns {
					for _, k := range s.Ks {
						if k > n || k < 1 {
							skipped = append(skipped,
								fmt.Sprintf("%s n=%d k=%d (k out of [1,n])", at, n, k))
							continue
						}
						if c.MaxK > 0 && k > c.MaxK {
							skipped = append(skipped,
								fmt.Sprintf("%s n=%d k=%d (%s caps k at %d)", at, n, k, c.Name, c.MaxK))
							continue
						}
						points = append(points, cellPoint{c, gen, ch, n, k})
						label := []string{c.Name, gen.Name}
						if withChannel {
							label = append(label, ch.Name())
						}
						labels = append(labels, append(label, strconv.Itoa(n), strconv.Itoa(k)))
					}
				}
			}
		}
	}
	return points, labels, skipped
}

// skipSummary names why every combination of a grid without cells was
// dropped: the count, and the first few skip lines.
func skipSummary(skipped []string) string {
	const shown = 3
	var b strings.Builder
	fmt.Fprintf(&b, "all %d combinations skipped: %s", len(skipped), strings.Join(skipped[:min(shown, len(skipped))], "; "))
	if len(skipped) > shown {
		fmt.Fprintf(&b, "; and %d more", len(skipped)-shown)
	}
	return b.String()
}

// Skipped returns a human-readable line per dropped cell, so callers can
// surface grids that are smaller than what the axes requested (no silent
// truncation at the CLI).
func (s Spec) Skipped() []string {
	_, _, skipped := s.enumerate()
	return skipped
}

// Grid compiles the spec's cross product into an executable Grid. The cell
// order — cases outermost, then patterns, channels, ns, ks — is part of the
// output contract: it fixes both seeds and row order.
func (s Spec) Grid() (Grid, error) {
	g, _, err := s.Compile()
	return g, err
}

// Compile compiles the spec in a single cross-product walk, returning both
// the executable grid and the human-readable skip lines for every dropped
// combination. Callers that surface skips (the CLIs) use this instead of the
// Grid + Skipped pair, which would enumerate the cross product twice.
func (s Spec) Compile() (Grid, []string, error) {
	if len(s.Cases) == 0 {
		return Grid{}, nil, fmt.Errorf("sweep: spec %q has no algorithm cases", s.Name)
	}
	if len(s.Patterns) == 0 {
		return Grid{}, nil, fmt.Errorf("sweep: spec %q has no patterns", s.Name)
	}
	if len(s.Ns) == 0 || len(s.Ks) == 0 {
		return Grid{}, nil, fmt.Errorf("sweep: spec %q has empty n or k axis", s.Name)
	}

	points, labels, skipped := s.enumerate()
	if len(points) == 0 {
		return Grid{}, skipped, fmt.Errorf("sweep: spec %q produced no cells: %s", s.Name, skipSummary(skipped))
	}

	axes := []string{"algo", "pattern", "n", "k"}
	if len(s.Channels) > 0 {
		axes = []string{"algo", "pattern", "channel", "n", "k"}
	}

	// Engine.Run finishes the trials sim.ClosedForm admits in closed form;
	// DisableKernel steps them slot by slot instead.
	run := (*sim.Engine).Run
	if s.DisableKernel {
		run = func(e *sim.Engine) model.Result {
			e.RunTo(math.MaxInt64)
			return e.Result()
		}
	}

	return Grid{
		Name:    s.Name,
		Axes:    axes,
		Cells:   labels,
		Trials:  s.Trials,
		Seed:    s.Seed,
		Workers: s.Workers,
		RunEngine: func(e *sim.Engine, cell, trial int, seed uint64) Sample {
			pt := points[cell]
			algo := pt.c.Algo(pt.n, pt.k)
			p := pt.c.Params(pt.n, pt.k, seed)
			horizon := pt.c.Horizon(pt.n, pt.k)
			opt := sim.Options{Horizon: horizon, Seed: seed, Channel: pt.ch, Adaptive: pt.c.Adaptive}
			var res model.Result
			var err error
			switch {
			case pt.gen.WhiteBox():
				// White-box families (spoiler, swap) run their attack on the
				// worker's engine against the cell's algorithm and channel.
				_, res, err = pt.gen.VsAlgo(e, algo, p, pt.k, PatternSeed(seed), opt)
			default:
				w := e.Pattern()
				*w = pt.gen.Generate(*w, pt.n, pt.k, PatternSeed(seed))
				if err = e.Reset(algo, p, *w, opt); err == nil {
					res = run(e)
				}
			}
			if err != nil {
				// A knowledge-inconsistent (case, pattern) pairing is a spec
				// bug; surface it loudly rather than skewing aggregates.
				panic(fmt.Sprintf("sweep: %s × %s rejected input: %v", pt.c.Name, pt.gen.Name, err))
			}
			if !res.Succeeded {
				res.Rounds = horizon
			}
			return Sample{
				OK:            res.Succeeded,
				Rounds:        res.Rounds,
				Collisions:    res.Collisions,
				Silences:      res.Silences,
				Transmissions: res.Transmissions,
				Listens:       res.Listens,
				Winner:        res.Winner,
				SuccessSlot:   res.SuccessSlot,
			}
		},
	}, skipped, nil
}

// Execute compiles and runs the spec.
func (s Spec) Execute() (*Result, error) {
	g, err := s.Grid()
	if err != nil {
		return nil, err
	}
	return g.Execute()
}

// ParseInts parses a comma-separated positive integer axis ("256,1024").
func ParseInts(list string) ([]int, error) {
	var out []int
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		v, err := strconv.Atoi(entry)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("sweep: bad axis value %q", entry)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty axis %q", list)
	}
	return out, nil
}
