// Command bench is nsmac's committed benchmark. From one process it runs
// four closed-loop workloads — the paper tables, an oblivious SpecDoc sweep
// through the shard driver, an adaptive sweep in one process, and a
// two-worker campaign over loopback HTTP — checks every output, and prints
// every metric with its median, quartiles and sample count. A traced pass
// (-trace) adds per-layer metrics and a Chrome trace-event file. See
// README.md for the workloads, the metrics and the comparison protocol.
//
// Run it from the repository root:
//
//	sh bench/run.sh -seed 20130527
//	sh bench/run.sh -workloads sweep_adaptive -trace trace.json
//	sh bench/run.sh --workload campaign_fanout --seed 7 --seconds 15 --trace 1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (per-layer ones when tracing). The exit
// code is 1 when any output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

const (
	// defaultReps is the timed reps per workload without -seconds.
	defaultReps = 20
	// minReps is the fewest timed reps a -seconds budget runs.
	minReps = 3
)

// config is one benchmark invocation.
type config struct {
	seed uint64
	// reps is the timed reps per workload when budget is zero; a non-zero
	// budget runs timed reps until the next would overrun it.
	reps   int
	budget time.Duration
	trace  bool

	// tiny shrinks every workload (tests only).
	tiny bool
	// corrupt alters the output of this 1-based rep before it is checked
	// (tests only; 0 for none).
	corrupt int
}

// report is one workload's outcome.
type report struct {
	workload string
	samples  map[string][]float64 // end-to-end metric samples
	refs     []float64            // referenceSpeed of each timed iteration
	layers   map[string]float64   // per-layer metrics of the traced rep
	// attempted and failed count operations: every rep, the oracle check,
	// and for the campaign every lease attempt, of which those beyond one
	// per shard fail.
	attempted, failed int
	problems          []string
	digests           []string // output digest of each rep, traced last
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	var (
		seed      = flag.Uint64("seed", defaultSeed, "workload seed: every input is generated from it")
		seconds   = flag.Float64("seconds", 0, "time budget of each workload's timed iterations (0: exactly 20)")
		traceArg  = flag.String("trace", "", "traced pass: empty or 0 off, 1 on, any other value on and written as Chrome trace-event JSON to that file")
		workloads = strings.Join(workloadNames, ",")
	)
	flag.StringVar(&workloads, "workloads", workloads, "comma-separated workloads to run")
	flag.StringVar(&workloads, "workload", workloads, "same as -workloads")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected arguments %v", flag.Args())
	}
	runtime.GOMAXPROCS(workers)
	cfg := config{
		seed:   *seed,
		reps:   defaultReps,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *traceArg != "" && *traceArg != "0",
	}
	names := strings.Split(workloads, ",")
	ws := make([]workload, len(names))
	for i, name := range names {
		w, err := newWorkload(name, cfg.seed, cfg.tiny)
		if err != nil {
			fatal("%v", err)
		}
		ws[i] = w
	}

	fmt.Printf("# nsmac bench seed=%d %s GOMAXPROCS=%d NumCPU=%d\n",
		cfg.seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	log := newTraceLog()
	reports := make([]*report, len(ws))
	for i, w := range ws {
		reports[i] = runWorkload(context.Background(), i, names[i], w, cfg, log)
		reports[i].print(os.Stdout)
	}
	if cfg.trace && *traceArg != "1" {
		if err := log.write(*traceArg, names); err != nil {
			fatal("writing the trace: %v", err)
		}
	}
	ok, err := writeResult(os.Stdout, reports, cfg.trace)
	if err != nil {
		fatal("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs one workload: a discarded warm-up rep, the timed
// iterations, the traced rep when tracing, and the oracle check. A timed
// iteration is one set-up sample and one rep, both scaled to reference speed
// by the reference task run before and after them (reference.go).
func runWorkload(ctx context.Context, index int, name string, w workload, cfg config, log *traceLog) *report {
	r := &report{workload: name, samples: map[string][]float64{}}
	var want []byte // the first good output, which every other must equal
	reps := 0
	run := func(label string, tr *tracer, root int) (wall time.Duration, allocMB float64) {
		// Every rep starts from a collected heap, so no rep pays for the
		// garbage of the one before.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := safeRep(ctx, w, tr, root)
		wall = time.Since(start)
		runtime.ReadMemStats(&after)
		reps++
		r.attempted += 1 + out.leases
		r.failed += max(out.leases-out.shards, 0)
		if reps == cfg.corrupt {
			out.text = append(out.text, "corrupted\n"...)
		}
		if err == nil {
			err = w.verify(out.text)
		}
		if err == nil {
			r.digests = append(r.digests, digest(out.text))
			if want == nil {
				want = out.text
			} else if d := digest(want); r.digests[len(r.digests)-1] != d {
				err = fmt.Errorf("output digest %s differs from the first rep's %s", r.digests[len(r.digests)-1], d)
			}
		}
		if err != nil {
			r.fail("%s: %v", label, err)
		}
		return wall, float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}

	run("warm-up", nil, -1)
	// A set-up sample times n set-ups, n doubled until a sample fills 10ms:
	// sub-microsecond set-ups are then timed far above the clock's
	// resolution. The doubling runs are calibration, not samples.
	n := 1
	for {
		d, err := w.setup(ctx, n)
		if err != nil {
			r.fail("set-up: %v", err)
			return r
		}
		if d >= 10*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	// The reference task runs between iterations, so each iteration is
	// bracketed by the one before it and the one after it.
	var spent time.Duration
	before := referenceTime()
	for i := 0; ; i++ {
		if cfg.budget == 0 && i == cfg.reps {
			break
		}
		if cfg.budget > 0 && i >= minReps && spent+spent/time.Duration(i) > cfg.budget {
			break
		}
		start := time.Now()
		d, err := w.setup(ctx, n)
		if err != nil {
			r.fail("set-up: %v", err)
			break
		}
		wall, alloc := run(fmt.Sprintf("rep %d", i+1), nil, -1)
		after := referenceTime()
		spent += time.Since(start)
		speed := referenceSpeed(before, after)
		before = after
		r.refs = append(r.refs, speed)
		r.samples["setup_s"] = append(r.samples["setup_s"], d.Seconds()/float64(n)*speed)
		r.samples["wall_s"] = append(r.samples["wall_s"], wall.Seconds()*speed)
		r.samples["alloc_mb"] = append(r.samples["alloc_mb"], alloc)
	}

	var tr *tracer
	var tracedWall time.Duration
	var tracedSpeed float64
	if cfg.trace {
		labels, routeOf, err := w.cells()
		if err != nil {
			r.fail("routing: %v", err)
		} else {
			tr = newTracer(log, index, reps+1, routeOf)
			root := tr.start(name, -1, 0)
			tracedWall, _ = run("traced rep", tr, root)
			tr.end(root)
			tr.flushCells(root, labels)
			tracedSpeed = referenceSpeed(before, referenceTime())
		}
	}

	r.attempted++
	speedup, err := w.oracle(ctx, want)
	if err != nil {
		r.fail("oracle: %v", err)
	}
	if tr != nil {
		r.layers = tr.layers(tracedWall, speedup)
		_, med, _ := quartiles(r.samples["wall_s"])
		r.layers["trace.wall_s"] = tracedWall.Seconds() * tracedSpeed
		r.layers["trace.overhead_s"] = r.layers["trace.wall_s"] - med
	}
	return r
}

// safeRep runs one rep, turning a panic on the calling goroutine into the
// rep's error.
func safeRep(ctx context.Context, w workload, tr *tracer, root int) (out repOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return w.rep(ctx, tr, root)
}

// value is one printed metric: median, quartiles and sample count.
type value struct {
	metric
	q1, med, q3 float64
	n           int
}

// endToEndValues lists the end-to-end metrics in declaration order.
func (r *report) endToEndValues() []value {
	var out []value
	for _, m := range endToEnd {
		q1, med, q3 := quartiles(r.samples[m.name])
		out = append(out, value{m, q1, med, q3, len(r.samples[m.name])})
	}
	return out
}

// layerValues lists the per-layer metrics in declaration order; none
// without a traced rep.
func (r *report) layerValues() []value {
	var out []value
	for _, m := range perLayer {
		if v, ok := r.layers[m.name]; ok {
			out = append(out, value{m, v, v, v, 1})
		}
	}
	return out
}

// unresolved reports whether the metric's spread is wider than its bound,
// so a change cannot be told apart from noise on it.
func (v value) unresolved() bool {
	return v.bound > 0 && (v.q3-v.q1)/v.med > v.bound
}

func (r *report) print(w io.Writer) {
	q1, med, q3 := quartiles(r.refs)
	fmt.Fprintf(w, "%-16s %-30s %-12.6g %-5s q1=%-10.6g q3=%-10.6g n=%d\n",
		r.workload, "(reference speed)", med, "x", q1, q3, len(r.refs))
	for _, v := range append(r.endToEndValues(), r.layerValues()...) {
		note := ""
		if v.unresolved() {
			note = " unresolved"
		}
		fmt.Fprintf(w, "%-16s %-30s %-12.6g %-5s q1=%-10.6g q3=%-10.6g n=%d%s\n",
			r.workload, v.name, v.med, v.unit, v.q1, v.q3, v.n, note)
	}
	fmt.Fprintf(w, "%-16s checks: attempted=%d failed=%d fail_frac=%.4g\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.workload, p)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the final JSON line: the end-to-end metrics, or the
// per-layer ones when tracing. With several workloads each key is prefixed
// by its workload. It reports whether every check passed.
func writeResult(w io.Writer, reports []*report, trace bool) (bool, error) {
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reports {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Correct = res.Correct && len(r.problems) == 0
		vals := r.endToEndValues()
		if trace {
			vals = r.layerValues()
		}
		for _, v := range vals {
			key := v.name
			if len(reports) > 1 {
				key = r.workload + "/" + v.name
			}
			med := v.med
			if math.IsNaN(med) {
				med = 0 // no samples: the checks already failed
			}
			res.Metrics[key] = jsonMetric{med, v.unit}
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return res.Correct, err
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
