package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"nsmac/internal/adversary"
	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/rng"
	"nsmac/internal/sim"
)

// Case names an algorithm under sweep together with the knowledge it is
// granted and the horizon it is given per (n, k) cell.
type Case struct {
	// Name labels the case on the sweep's algo axis.
	Name string
	// Ref is the case's wire name in the registry entry grammar `name[:arg]`
	// (e.g. "wakeupc", "wakeup_with_s:5"). ResolveCase fills it; cases built
	// directly in Go may leave it empty, at the cost of not being
	// serializable into a SpecDoc.
	Ref string
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
	// entries with ChannelsByName). Empty keeps the paper's default channel
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
	// Batch caps trials per work item (<= 0 selects the Grid default); it
	// tunes scheduling overhead only and never changes output bytes.
	Batch int
	// DisableKernel forces every cell onto the slot-by-slot engine. By
	// default an adaptive case whose algorithm declares model.Persistent
	// (tree_cd) runs in closed form through kernel.Run, which is
	// byte-identical in output and much faster there, on a channel that
	// delivers a collision as silence to every role and either does not
	// perturb slots or declares its perturbation shape via
	// model.KernelPerturber: none, ack, noisy, jam — not cd or sender_cd.
	// This switch exists for differential testing and for benchmarking the
	// engine path.
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
		return Grid{}, skipped, fmt.Errorf("sweep: spec %q produced no cells (all k > n?)", s.Name)
	}

	axes := []string{"algo", "pattern", "n", "k"}
	if len(s.Channels) > 0 {
		axes = []string{"algo", "pattern", "channel", "n", "k"}
	}

	// An adaptive case runs in closed form (kernel.Run) when its algorithm
	// declares model.Persistent and the cell's channel delivers a collision
	// as silence to every role, with any perturbation declared through
	// model.KernelPerturber (noisy, jam). Every other cell runs on the
	// worker's engine. Eligibility depends only on the cell's (algorithm,
	// channel, adaptive) pairing, never on a trial's seed or pattern, so the
	// decision is hoisted out of the trial loop.
	useKernel := make([]bool, len(points))
	if !s.DisableKernel {
		for i, pt := range points {
			useKernel[i] = kernel.Eligible(pt.c.Algo(pt.n, pt.k),
				sim.Options{Horizon: 1, Channel: pt.ch, Adaptive: pt.c.Adaptive})
		}
	}

	return Grid{
		Name:    s.Name,
		Axes:    axes,
		Cells:   labels,
		Trials:  s.Trials,
		Seed:    s.Seed,
		Workers: s.Workers,
		Batch:   s.Batch,
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
			case useKernel[cell]:
				res, err = kernel.Run(algo, p, pt.gen.Generate(pt.n, pt.k, PatternSeed(seed)), opt)
			default:
				if err = e.Reset(algo, p, pt.gen.Generate(pt.n, pt.k, PatternSeed(seed)), opt); err == nil {
					res = e.Run()
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

// StandardCases returns the canonical named algorithm cases the cmd/ tools
// expose, in canonical order, resolved from the registry.
func StandardCases() []Case {
	out := make([]Case, len(standardCaseNames))
	for i, name := range standardCaseNames {
		c, err := ResolveCase(name)
		if err != nil {
			panic(fmt.Sprintf("sweep: standard case %q missing from registry: %v", name, err))
		}
		out[i] = c
	}
	return out
}

// CasesByName resolves a comma-separated algorithm entry list ("all" or
// empty selects the standard set) against the case registry. Each entry uses
// the `name[:arg]` grammar — see ResolveCase.
func CasesByName(list string) ([]Case, error) {
	if list == "" || list == "all" {
		return StandardCases(), nil
	}
	var out []Case
	for _, entry := range strings.Split(list, ",") {
		c, err := ResolveCase(entry)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ParsePatterns resolves a comma-separated pattern list with the default
// shape parameters: start slot 0, gap 7, window width 64. See
// ParsePatternsAt.
func ParsePatterns(list string) ([]adversary.Generator, error) {
	return ParsePatternsAt(list, 0, 7, 64)
}

// ParsePatternsAt resolves a comma-separated pattern entry list against the
// pattern registry with explicit shape defaults: every family starts at slot
// s, staggered/bursts use gap and uniform uses width unless an entry
// overrides its parameter with the `name[:arg][@start]` grammar —
// "simultaneous", "staggered:7", "uniform:64@5", "bursts:17". Empty or
// "suite" selects the standard adversary suite (which pins start slot 0).
//
// Two white-box families are registered alongside the black-box ones:
// "spoiler" (wake a colliding fresh station at every would-be success slot)
// and "swap" (the Theorem 2.1 swap search's worst witness set; "swap:1"
// selects the greedy, much slower variant). They ignore the shape
// parameters — their pattern is constructed per trial against the cell's
// algorithm. The registry behind this is shared by both cmd/ tools and
// SpecDoc resolution; new families join via RegisterPattern.
func ParsePatternsAt(list string, s, gap, width int64) ([]adversary.Generator, error) {
	if strings.TrimSpace(list) == "" {
		return adversary.Suite(), nil
	}
	shape := PatternShape{Start: s, Gap: gap, Width: width}
	var out []adversary.Generator
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "suite" {
			out = append(out, adversary.Suite()...)
			continue
		}
		// An empty entry (stray comma) is a typo, not a request for the
		// suite — erroring keeps the grid exactly as wide as asked.
		g, err := ResolvePattern(entry, shape)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
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
