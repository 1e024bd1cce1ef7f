package sweep

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"nsmac/internal/adversary"
	"nsmac/internal/core"
	"nsmac/internal/model"
)

// This file is the name layer of the sweep API: registries that map wire
// names to algorithm cases, wake-pattern families and channel models, plus
// the entry grammar that carries their parameters. Everything a SpecDoc
// references resolves here, so a grid serialized in one process reconstructs
// the identical grid in another as long as both registered the same names.
//
// # Entry grammar
//
// A case entry is `name[:arg]` — "wakeupc", "wakeup_with_s:5". A pattern
// entry is `name[:arg][@start]` — "staggered:7", "uniform:64@5", "spoiler".
// The optional ":arg" is the family's shape parameter (gap, window width,
// scenario-A start slot, swap greediness); the optional "@start" shifts a
// black-box pattern's first wake slot. Case and pattern args are
// non-negative integers. A channel entry is `name[:arg]` — "none", "cd",
// "sender_cd", "ack", "noisy:0.05", "jam:3" — whose argument may be a float
// (noise probability) or an integer (jam budget).

// PatternShape carries the default shape parameters a pattern entry falls
// back to when it omits its ":arg" or "@start": Start for the first wake
// slot, Gap for staggered/bursts, Width for uniform windows.
type PatternShape struct {
	Start, Gap, Width int64
}

// DefaultPatternShape returns the documented entry defaults: start slot 0,
// gap 7, window width 64.
func DefaultPatternShape() PatternShape {
	return PatternShape{Start: 0, Gap: 7, Width: 64}
}

// CaseFactory builds a registered case from its optional entry argument.
// The factory must set the returned Case's Ref to an entry that re-resolves
// to the same case (ResolveCase fills it with the normalized entry text when
// the factory leaves it empty) and must be deterministic in its arguments.
type CaseFactory func(arg int64, hasArg bool) (Case, error)

// PatternFactory builds a registered pattern family from its optional entry
// argument and the shape defaults (shape.Start already reflects a per-entry
// "@start" override). Implementations must be deterministic in their
// arguments; the adversary constructors fill the generator's Ref. A factory
// that honors shape.Start must reflect a non-zero start in its Ref as
// "@<start>" — ResolvePattern rejects entries whose explicit start override
// left no trace in the wire name.
type PatternFactory func(arg int64, hasArg bool, shape PatternShape) (adversary.Generator, error)

// ChannelFactory builds a registered channel model from its optional entry
// argument. Channel arguments are raw entry text rather than parsed
// integers, because the family parameter may be a float (noisy:0.05) or an
// integer budget (jam:3). The returned model's Name() is its wire ref and
// must re-resolve to an equivalent model; factories must be deterministic in
// their arguments and must return stateless model values (per-run state
// lives in model.ChannelState).
type ChannelFactory func(arg string, hasArg bool) (model.ChannelModel, error)

// registries hold the name → factory maps plus registration order (for
// error messages and docs). A mutex guards registration from init funcs of
// multiple packages and from tests.
var (
	regMu        sync.Mutex
	caseReg      = map[string]CaseFactory{}
	caseOrder    []string
	patternReg   = map[string]PatternFactory{}
	patternOrder []string
	channelReg   = map[string]ChannelFactory{}
	channelOrder []string
)

// RegisterCase adds a named algorithm case factory to the registry, making
// it resolvable from CLI -algos lists and SpecDoc case entries. It panics on
// an empty or already-registered name (registration is an init-time,
// programmer-driven act).
func RegisterCase(name string, f CaseFactory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || f == nil {
		panic("sweep: RegisterCase with empty name or nil factory")
	}
	if strings.ContainsAny(name, ":@, ") {
		panic(fmt.Sprintf("sweep: case name %q contains entry-grammar delimiters", name))
	}
	if _, dup := caseReg[name]; dup {
		panic(fmt.Sprintf("sweep: case %q registered twice", name))
	}
	caseReg[name] = f
	caseOrder = append(caseOrder, name)
}

// RegisterPattern adds a named wake-pattern family factory to the registry,
// making it resolvable from CLI -patterns lists and SpecDoc pattern entries.
// Same contract as RegisterCase.
func RegisterPattern(name string, f PatternFactory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || f == nil {
		panic("sweep: RegisterPattern with empty name or nil factory")
	}
	if strings.ContainsAny(name, ":@, ") {
		panic(fmt.Sprintf("sweep: pattern name %q contains entry-grammar delimiters", name))
	}
	if _, dup := patternReg[name]; dup {
		panic(fmt.Sprintf("sweep: pattern %q registered twice", name))
	}
	patternReg[name] = f
	patternOrder = append(patternOrder, name)
}

// RegisterChannel adds a named channel-model factory to the registry, making
// it resolvable from CLI -channels lists and SpecDoc channel entries. Same
// contract as RegisterCase.
func RegisterChannel(name string, f ChannelFactory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || f == nil {
		panic("sweep: RegisterChannel with empty name or nil factory")
	}
	if strings.ContainsAny(name, ":@, ") {
		panic(fmt.Sprintf("sweep: channel name %q contains entry-grammar delimiters", name))
	}
	if _, dup := channelReg[name]; dup {
		panic(fmt.Sprintf("sweep: channel %q registered twice", name))
	}
	channelReg[name] = f
	channelOrder = append(channelOrder, name)
}

// CaseNames returns every registered case name in registration order.
func CaseNames() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]string(nil), caseOrder...)
}

// PatternNames returns every registered pattern name in registration order.
func PatternNames() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]string(nil), patternOrder...)
}

// ChannelNames returns every registered channel name in registration order.
func ChannelNames() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]string(nil), channelOrder...)
}

// splitArg splits "name:arg" and parses the non-negative integer argument.
func splitArg(entry string) (name string, arg int64, hasArg bool, err error) {
	name, argStr, hasArg := strings.Cut(entry, ":")
	if !hasArg {
		return name, 0, false, nil
	}
	v, perr := strconv.ParseInt(argStr, 10, 64)
	if perr != nil || v < 0 {
		return "", 0, false, fmt.Errorf("sweep: bad argument %q in entry %q", argStr, entry)
	}
	return name, v, true, nil
}

// ResolveCase resolves one case entry (`name[:arg]`) against the registry.
// The returned case carries a Ref that re-resolves to the same case.
func ResolveCase(entry string) (Case, error) {
	entry = strings.TrimSpace(entry)
	name, arg, hasArg, err := splitArg(entry)
	if err != nil {
		return Case{}, err
	}
	regMu.Lock()
	f, ok := caseReg[name]
	regMu.Unlock()
	if !ok {
		return Case{}, fmt.Errorf("sweep: unknown algorithm %q (have %s)",
			name, strings.Join(CaseNames(), ", "))
	}
	c, err := f(arg, hasArg)
	if err != nil {
		return Case{}, err
	}
	if c.Ref == "" {
		c.Ref = entry
	}
	return c, nil
}

// ResolvePattern resolves one pattern entry (`name[:arg][@start]`) against
// the registry with the given shape defaults. The returned generator carries
// a Ref that re-resolves to the same generator regardless of shape defaults.
func ResolvePattern(entry string, shape PatternShape) (adversary.Generator, error) {
	entry = strings.TrimSpace(entry)
	body, startStr, hasStart := strings.Cut(entry, "@")
	if hasStart {
		v, err := strconv.ParseInt(startStr, 10, 64)
		if err != nil || v < 0 {
			return adversary.Generator{}, fmt.Errorf("sweep: bad start slot %q in entry %q", startStr, entry)
		}
		shape.Start = v
	}
	name, arg, hasArg, err := splitArg(body)
	if err != nil {
		return adversary.Generator{}, err
	}
	regMu.Lock()
	f, ok := patternReg[name]
	regMu.Unlock()
	if !ok {
		return adversary.Generator{}, fmt.Errorf("sweep: unknown pattern %q (have %s, suite)",
			name, strings.Join(PatternNames(), ", "))
	}
	g, err := f(arg, hasArg, shape)
	if err != nil {
		return adversary.Generator{}, err
	}
	// An explicit non-zero "@start" must be visible in the generator's wire
	// name; a family that ignored it (the white-box adversaries construct
	// their pattern against the algorithm, not a start slot) would silently
	// run a different adversary than requested and break the -dump-spec
	// round trip.
	if hasStart && shape.Start != 0 && !strings.HasSuffix(g.Ref, fmt.Sprintf("@%d", shape.Start)) {
		return adversary.Generator{}, fmt.Errorf("sweep: pattern %q ignores its @start override (entry %q)", name, entry)
	}
	if g.Ref == "" {
		g.Ref = entry
	}
	return g, nil
}

// ResolveChannel resolves one channel entry (`name[:arg]`) against the
// registry. The returned model's Name() is its canonical wire ref; resolving
// that ref again must yield an equivalent model (verified for sweeps by the
// SpecDoc fingerprint round trip).
func ResolveChannel(entry string) (model.ChannelModel, error) {
	entry = strings.TrimSpace(entry)
	name, arg, hasArg := strings.Cut(entry, ":")
	regMu.Lock()
	f, ok := channelReg[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sweep: unknown channel %q (have %s)",
			name, strings.Join(ChannelNames(), ", "))
	}
	m, err := f(arg, hasArg)
	if err != nil {
		return nil, err
	}
	if m == nil || m.Name() == "" {
		return nil, fmt.Errorf("sweep: channel factory %q returned an unnamed model", name)
	}
	return m, nil
}

// ChannelsByName resolves a comma-separated channel entry list ("none,cd",
// "noisy:0.05"). An empty list resolves to nil: the sweep keeps the paper's
// default channel and — for exact compatibility with pre-channel grids —
// omits the channel axis entirely.
func ChannelsByName(list string) ([]model.ChannelModel, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []model.ChannelModel
	for _, entry := range strings.Split(list, ",") {
		m, err := ResolveChannel(entry)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// standardCaseNames is the canonical cmd/ tool registry order; StandardCases
// and "all" resolve exactly this list even when other packages register
// additional cases.
var standardCaseNames = []string{
	"roundrobin", "wakeup_with_s", "wakeup_with_k", "wakeupc",
	"rpd", "rpdk", "beb", "localssf",
}

// StandardCaseNames returns the canonical algorithm list the cmd/ tools
// expose ("all" resolves to exactly these, in this order).
func StandardCaseNames() []string {
	return append([]string(nil), standardCaseNames...)
}

// noArg guards a factory that takes no entry argument.
func noArg(name string, hasArg bool) error {
	if hasArg {
		return fmt.Errorf("sweep: algorithm %q takes no argument", name)
	}
	return nil
}

func init() {
	scenC := func(n, k int, seed uint64) model.Params {
		return model.Params{N: n, S: -1, Seed: seed}
	}
	scenB := func(n, k int, seed uint64) model.Params {
		return model.Params{N: n, K: k, S: -1, Seed: seed}
	}

	// horizoned is what a registrable concrete algorithm provides beyond the
	// model interface: its own safe simulation horizon.
	type horizoned interface {
		model.Algorithm
		Horizon(n, k int) int64
	}

	simpleCase := func(name string, mk func() horizoned, params func(n, k int, seed uint64) model.Params, maxK int) {
		RegisterCase(name, func(arg int64, hasArg bool) (Case, error) {
			if err := noArg(name, hasArg); err != nil {
				return Case{}, err
			}
			return Case{
				Name:    name,
				Ref:     name,
				Algo:    func(n, k int) model.Algorithm { return mk() },
				Params:  params,
				Horizon: func(n, k int) int64 { return mk().Horizon(n, k) },
				MaxK:    maxK,
			}, nil
		})
	}

	simpleCase("roundrobin", func() horizoned { return core.NewRoundRobin() }, scenC, 0)

	// Scenario A takes the known start slot as its entry argument:
	// "wakeup_with_s" pins s = 0, "wakeup_with_s:5" pins s = 5.
	RegisterCase("wakeup_with_s", func(arg int64, hasArg bool) (Case, error) {
		s := int64(0)
		refStr := "wakeup_with_s"
		if hasArg {
			s = arg
			refStr = fmt.Sprintf("wakeup_with_s:%d", s)
		}
		return Case{
			Name: "wakeup_with_s",
			Ref:  refStr,
			Algo: func(n, k int) model.Algorithm { return core.NewWakeupWithS() },
			Params: func(n, k int, seed uint64) model.Params {
				return model.Params{N: n, S: s, Seed: seed}
			},
			Horizon: core.WakeupWithSHorizon,
		}, nil
	})

	RegisterCase("wakeup_with_k", func(arg int64, hasArg bool) (Case, error) {
		if err := noArg("wakeup_with_k", hasArg); err != nil {
			return Case{}, err
		}
		return Case{
			Name:    "wakeup_with_k",
			Ref:     "wakeup_with_k",
			Algo:    func(n, k int) model.Algorithm { return core.NewWakeupWithK() },
			Params:  scenB,
			Horizon: core.WakeupWithKHorizon,
		}, nil
	})

	simpleCase("wakeupc", func() horizoned { return core.NewWakeupC() }, scenC, 0)
	simpleCase("rpd", func() horizoned { return core.NewRPD() }, scenC, 0)
	simpleCase("rpdk", func() horizoned { return core.NewRPDWithK() }, scenB, 0)
	simpleCase("beb", func() horizoned { return core.NewBEB() }, scenC, 0)
	// LocalSSF's quadratic ladders leave their feasible regime past k = 64.
	simpleCase("localssf", func() horizoned { return core.NewLocalSSF() }, scenB, 64)

	// Adaptive cases: feedback-driven algorithms run with Options.Adaptive.
	// Not part of standardCaseNames ("all" keeps the paper's oblivious
	// roster); select them explicitly with -algos tree_cd,kg. tree_cd
	// declares model.Persistent, so its cells on collision-silent channels
	// (none, ack, noisy, jam) run in closed form (kernel.Run) unless
	// -no-kernel forces the engine; its cd and sender_cd cells, and every kg
	// cell, run on the engine.
	RegisterCase("tree_cd", func(arg int64, hasArg bool) (Case, error) {
		if err := noArg("tree_cd", hasArg); err != nil {
			return Case{}, err
		}
		return Case{
			Name:     "tree_cd",
			Ref:      "tree_cd",
			Algo:     func(n, k int) model.Algorithm { return core.NewTreeCD() },
			Params:   scenC,
			Horizon:  core.TreeCD{}.Horizon,
			Adaptive: true,
		}, nil
	})
	RegisterCase("kg", func(arg int64, hasArg bool) (Case, error) {
		if err := noArg("kg", hasArg); err != nil {
			return Case{}, err
		}
		return Case{
			Name:     "kg",
			Ref:      "kg",
			Algo:     func(n, k int) model.Algorithm { return core.NewKGConflictResolution() },
			Params:   scenB,
			Horizon:  (&core.KGConflictResolution{}).Horizon,
			Adaptive: true,
		}, nil
	})

	RegisterPattern("simultaneous", func(arg int64, hasArg bool, shape PatternShape) (adversary.Generator, error) {
		if hasArg {
			return adversary.Generator{}, fmt.Errorf("sweep: pattern \"simultaneous\" takes no argument (use @start for the wake slot)")
		}
		return adversary.Simultaneous(shape.Start), nil
	})
	RegisterPattern("staggered", func(arg int64, hasArg bool, shape PatternShape) (adversary.Generator, error) {
		gap := shape.Gap
		if hasArg {
			gap = arg
		}
		return adversary.Staggered(shape.Start, gap), nil
	})
	RegisterPattern("uniform", func(arg int64, hasArg bool, shape PatternShape) (adversary.Generator, error) {
		width := shape.Width
		if hasArg {
			width = arg
		}
		return adversary.UniformWindow(shape.Start, width), nil
	})
	RegisterPattern("bursts", func(arg int64, hasArg bool, shape PatternShape) (adversary.Generator, error) {
		gap := shape.Gap
		if hasArg {
			gap = arg
		}
		return adversary.Bursts(shape.Start, 4, gap), nil
	})
	RegisterPattern("spoiler", func(arg int64, hasArg bool, shape PatternShape) (adversary.Generator, error) {
		if hasArg {
			return adversary.Generator{}, fmt.Errorf("sweep: pattern \"spoiler\" takes no argument")
		}
		return adversary.SpoilerPattern(), nil
	})
	RegisterPattern("swap", func(arg int64, hasArg bool, shape PatternShape) (adversary.Generator, error) {
		if hasArg && arg != 0 && arg != 1 {
			return adversary.Generator{}, fmt.Errorf("sweep: bad swap argument %d (swap:1 selects the greedy search; swap:0 or no argument the plain one)", arg)
		}
		return adversary.SwapPattern(hasArg && arg == 1), nil
	})

	// Channel models: the four feedback regimes plus the two perturbing
	// families. Argless regimes reject an argument; the perturbing families
	// require one.
	plainChannel := func(name string, m model.ChannelModel) {
		RegisterChannel(name, func(arg string, hasArg bool) (model.ChannelModel, error) {
			if hasArg {
				return nil, fmt.Errorf("sweep: channel %q takes no argument", name)
			}
			return m, nil
		})
	}
	plainChannel("none", model.None())
	plainChannel("cd", model.CD())
	plainChannel("sender_cd", model.SenderCD())
	plainChannel("ack", model.Ack())
	RegisterChannel("noisy", func(arg string, hasArg bool) (model.ChannelModel, error) {
		if !hasArg {
			return nil, fmt.Errorf("sweep: channel \"noisy\" needs a flip probability (noisy:<p>)")
		}
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("sweep: bad noise probability %q (want 0 <= p <= 1)", arg)
		}
		return model.Noisy(p), nil
	})
	RegisterChannel("jam", func(arg string, hasArg bool) (model.ChannelModel, error) {
		if !hasArg {
			return nil, fmt.Errorf("sweep: channel \"jam\" needs a slot budget (jam:<q>)")
		}
		q, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || q < 0 {
			return nil, fmt.Errorf("sweep: bad jam budget %q (want an integer >= 0)", arg)
		}
		return model.Jam(q), nil
	})
}
