package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nsmac/internal/experiments"
	"nsmac/internal/kernel"
	"nsmac/internal/model"
	"nsmac/internal/sim"
	"nsmac/sweep"
)

// workers is the trial-thread budget of every workload, and main runs the
// process at GOMAXPROCS = workers. On the shared 2-vCPU baseline box a
// second busy thread measures the host's scheduler more than the program:
// one thread leaves the other vCPU to the OS and the Go runtime's helpers.
const workers = 1

// defaultSeed is the seed the paper tables' golden digest is for.
const defaultSeed = 20130527

// paperTablesGolden is the SHA-256 of the quick paper tables' text (every
// Table.Render of experiments.All, in order) at defaultSeed.
const paperTablesGolden = "c065fc93d1b20970a33e46ffc447ed02ec763e3848115fcb0f67793d24012b02"

var workloadNames = []string{"paper_tables", "sweep_oblivious", "sweep_adaptive", "campaign_fanout"}

// workload is one benchmark workload. Each is a closed loop: one rep runs
// after the previous has returned.
type workload interface {
	// setup performs the workload's set-up n times — everything from the
	// start of a rep until its first trial can run — tears down whatever it
	// started, and returns the wall time spent setting up.
	setup(ctx context.Context, n int) (time.Duration, error)
	// rep runs the workload once end to end. tr is nil on an untraced rep;
	// root is the traced rep's span.
	rep(ctx context.Context, tr *tracer, root int) (repOut, error)
	// verify checks one rep's output beyond its agreement with the others.
	verify(out []byte) error
	// oracle checks the output against an independent execution and returns
	// the engine's trial time over the kernel's, per route.
	oracle(ctx context.Context, out []byte) (map[string]float64, error)
	// cells returns each grid cell's labels and route, for the traced rep.
	cells() ([][]string, []string, error)
}

// repOut is one rep's output: the text a user reads, and for the campaign
// the lease attempts it took against the shards it had.
type repOut struct {
	text           []byte
	leases, shards int
}

// newWorkload builds the named workload from the seed. tiny shrinks it to a
// size the tests can run in a second.
func newWorkload(name string, seed uint64, tiny bool) (workload, error) {
	ns, pick := []int{256, 1024}, func(full, small int) int { return full }
	if tiny {
		ns, pick = []int{256}, func(full, small int) int { return small }
	}
	patterns := []string{"simultaneous", "staggered:3", "uniform:64"}
	switch name {
	case "paper_tables":
		return paperTables{seed: seed}, nil
	case "sweep_oblivious":
		return dispatched{specWorkload{sweep.SpecDoc{
			Name:     name,
			Cases:    []string{"roundrobin", "localssf", "wakeupc", "wakeup_with_k", "rpd"},
			Patterns: patterns,
			Channels: []string{"none", "noisy:0.1", "jam:2"},
			Ns:       ns, Ks: []int{4, 16, 64}, Trials: pick(64, 16), Seed: seed,
		}}, 4}, nil
	case "sweep_adaptive":
		// bursts:16 stands in for uniform:64 here: under uniform wakes a
		// tree_cd trial on a channel without collision detection either
		// succeeds early or runs to the horizon, so a few trials' work
		// swings by 15 % between seeds. Fixed wake times keep it within 1 %.
		return oneProcess{specWorkload{sweep.SpecDoc{
			Name:     name,
			Cases:    []string{"tree_cd", "kg"},
			Patterns: []string{"simultaneous", "staggered:3", "bursts:16"},
			Channels: []string{"none", "cd", "sender_cd", "ack"},
			Ns:       ns, Ks: []int{4, 16, 64}, Trials: pick(4, 2), Seed: seed,
		}}}, nil
	case "campaign_fanout":
		trials := pick(32, 8)
		return campaignRun{specWorkload{sweep.SpecDoc{
			Name:     name,
			Cases:    []string{"wakeupc", "roundrobin", "rpd", "tree_cd"},
			Patterns: []string{"staggered:3", "spoiler", "uniform:64"},
			Channels: []string{"none", "cd", "noisy:0.1"},
			Ns:       ns, Ks: []int{4, 16, 64}, Trials: trials, Seed: seed,
		}}, trials}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// paperTables regenerates T1–T12 in quick mode, the run `wakeup-bench
// -quick` makes. A full run takes seconds per rep, too few reps for a steady
// median in one benchmark run; quick mode runs the same twelve drivers.
type paperTables struct {
	seed uint64
}

func (w paperTables) config() experiments.Config {
	return experiments.Config{Quick: true, Seed: w.seed, Workers: workers}
}

// sink keeps the set-up loop's result alive.
var sink int

func (w paperTables) setup(_ context.Context, n int) (time.Duration, error) {
	return setups(n, func() error {
		sink += len(experiments.All()) + w.config().Workers
		return nil
	})
}

// setups returns the wall time of n calls of a set-up that starts nothing
// needing a teardown.
func setups(n int, f func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (w paperTables) rep(_ context.Context, tr *tracer, root int) (repOut, error) {
	cfg := w.config()
	var text bytes.Buffer
	for _, e := range experiments.All() {
		layer := "experiments.other"
		if e.ID == "T5" || e.ID == "T6" {
			layer = "experiments." + e.ID
		}
		tr.phase(root, e.ID, layer, func(int) error {
			text.WriteString(e.Run(cfg).Render())
			return nil
		})
	}
	return repOut{text: text.Bytes()}, nil
}

func (w paperTables) verify(out []byte) error {
	if bytes.Contains(out, []byte("SHAPE VIOLATION")) {
		return fmt.Errorf("the tables report a SHAPE VIOLATION")
	}
	if w.seed == defaultSeed {
		if got := digest(out); got != paperTablesGolden {
			return fmt.Errorf("tables digest %s, golden %s", got, paperTablesGolden)
		}
	}
	return nil
}

func (paperTables) oracle(context.Context, []byte) (map[string]float64, error) { return nil, nil }

func (paperTables) cells() ([][]string, []string, error) { return nil, nil, nil }

// specWorkload is a workload whose input is one generated SpecDoc.
type specWorkload struct {
	doc sweep.SpecDoc
}

// encoded is the generated input as the program receives it: document bytes.
func (s specWorkload) encoded() ([]byte, error) { return s.doc.Encode() }

func (specWorkload) verify([]byte) error { return nil }

// cells compiles the document and works out each cell's route with the
// same kernel.Class call Spec.Compile makes.
func (s specWorkload) cells() ([][]string, []string, error) {
	spec, err := s.doc.Resolve()
	if err != nil {
		return nil, nil, err
	}
	g, _, err := spec.Compile()
	if err != nil {
		return nil, nil, err
	}
	cases := map[string]sweep.Case{}
	for _, c := range spec.Cases {
		cases[c.Name] = c
	}
	channels := map[string]model.ChannelModel{}
	for _, m := range spec.Channels {
		channels[m.Name()] = m
	}
	routeOf := make([]string, len(g.Cells))
	for i, labels := range g.Cells {
		// Labels are algo, pattern, channel, n, k.
		c, ch := cases[labels[0]], channels[labels[2]]
		n, errN := strconv.Atoi(labels[3])
		k, errK := strconv.Atoi(labels[4])
		if errN != nil || errK != nil {
			return nil, nil, fmt.Errorf("cell %d labels %v: bad n or k", i, labels)
		}
		cls, ok := kernel.Class(c.Algo(n, k), sim.Options{Horizon: 1, Channel: ch, Adaptive: c.Adaptive})
		switch {
		case !ok:
			routeOf[i] = "engine"
		case c.Adaptive:
			routeOf[i] = "kernel_epoch"
		case cls.SeedSensitive:
			routeOf[i] = "kernel_seeded"
		default:
			routeOf[i] = "kernel_memo"
		}
	}
	return g.Cells, routeOf, nil
}

// oracle runs shard 0 of 8 twice, kernel-routed and with DisableKernel,
// and requires byte-identical envelopes: the engine is the oracle for one
// eighth of the trials. The same runs time each route against the engine.
func (s specWorkload) oracle(context.Context, []byte) (map[string]float64, error) {
	_, routeOf, err := s.cells()
	if err != nil {
		return nil, err
	}
	shard := func(disable bool) ([]byte, []cellAcc, error) {
		spec, err := s.doc.Resolve()
		if err != nil {
			return nil, nil, err
		}
		spec.Workers, spec.DisableKernel = workers, disable
		g, _, err := spec.Compile()
		if err != nil {
			return nil, nil, err
		}
		cells := newCellAccs(len(g.Cells))
		env, err := timeCells(g, time.Now(), cells).RunShard(0, 8)
		if err != nil {
			return nil, nil, err
		}
		data, err := env.Encode()
		return data, cells, err
	}
	kernelEnv, kernelCells, err := shard(false)
	if err != nil {
		return nil, err
	}
	engineEnv, engineCells, err := shard(true)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(kernelEnv, engineEnv) {
		return nil, fmt.Errorf("kernel-routed shard 0/8 differs from the engine's")
	}
	kernelNs, engineNs := map[string]int64{}, map[string]int64{}
	for i, r := range routeOf {
		kernelNs[r] += kernelCells[i].busy.Load()
		engineNs[r] += engineCells[i].busy.Load()
	}
	speedup := map[string]float64{}
	for r, ns := range kernelNs {
		if ns > 0 {
			speedup[r] = float64(engineNs[r]) / float64(ns)
		}
	}
	return speedup, nil
}

// oneProcess runs its document in one process, as `wakeup-bench -spec`
// does: parse, resolve, compile, execute, render.
type oneProcess struct {
	specWorkload
}

// prepare is the set-up: generate the document, parse, resolve, compile.
func (w oneProcess) prepare(tr *tracer, root int) (sweep.Grid, error) {
	data, err := w.encoded()
	if err != nil {
		return sweep.Grid{}, err
	}
	var doc sweep.SpecDoc
	if err := tr.phase(root, "parse", "sweep.parse", func(int) (err error) {
		doc, err = sweep.ParseSpecDoc(data)
		return err
	}); err != nil {
		return sweep.Grid{}, err
	}
	var spec sweep.Spec
	if err := tr.phase(root, "resolve", "sweep.resolve", func(int) (err error) {
		spec, err = doc.Resolve()
		return err
	}); err != nil {
		return sweep.Grid{}, err
	}
	spec.Workers = workers
	var g sweep.Grid
	err = tr.phase(root, "compile", "sweep.compile", func(int) (err error) {
		g, _, err = spec.Compile()
		return err
	})
	return g, err
}

func (w oneProcess) setup(_ context.Context, n int) (time.Duration, error) {
	return setups(n, func() error {
		_, err := w.prepare(nil, -1)
		return err
	})
}

func (w oneProcess) rep(_ context.Context, tr *tracer, root int) (repOut, error) {
	g, err := w.prepare(tr, root)
	if err != nil {
		return repOut{}, err
	}
	var res *sweep.Result
	if err := tr.execute(root, workers, func() (err error) {
		res, err = tr.wrap(g).Execute()
		return err
	}); err != nil {
		return repOut{}, err
	}
	var text string
	tr.phase(root, "render", "sweep.render", func(int) error {
		text = res.Text()
		return nil
	})
	return repOut{text: []byte(text)}, nil
}

// dispatched runs its document as `wakeup-bench run -shards m -exec local`
// does: parse, plan, a dispatch.Driver over the in-process executor with
// the full trial budget per shard, merge, render.
type dispatched struct {
	specWorkload
	shards int
}

// prepare is the set-up: generate the document, parse, plan the shards.
func (w dispatched) prepare(tr *tracer, root int) (sweep.SpecDoc, error) {
	data, err := w.encoded()
	if err != nil {
		return sweep.SpecDoc{}, err
	}
	var doc sweep.SpecDoc
	if err := tr.phase(root, "parse", "sweep.parse", func(int) (err error) {
		doc, err = sweep.ParseSpecDoc(data)
		return err
	}); err != nil {
		return sweep.SpecDoc{}, err
	}
	err = tr.phase(root, "plan", "", func(int) error {
		_, _, err := sweep.PlanShards(doc, w.shards)
		return err
	})
	return doc, err
}

func (w dispatched) setup(_ context.Context, n int) (time.Duration, error) {
	return setups(n, func() error {
		_, err := w.prepare(nil, -1)
		return err
	})
}

func (w dispatched) rep(ctx context.Context, tr *tracer, root int) (repOut, error) {
	doc, err := w.prepare(tr, root)
	if err != nil {
		return repOut{}, err
	}
	// Driver.Run is RunShards then Merge; calling the two apart times the
	// merge on its own.
	var envs []*sweep.ShardResult
	if err := tr.phase(root, "shards", "dispatch.driver", func(id int) (err error) {
		d := &sweep.Driver{Exec: sweep.Local{Workers: workers}}
		if tr != nil {
			d.Exec = tracedExec{t: tr, parent: id, workers: workers}
		}
		envs, err = d.RunShards(ctx, doc, w.shards)
		return err
	}); err != nil {
		return repOut{}, err
	}
	var res *sweep.Result
	if err := tr.phase(root, "merge", "sweep.merge", func(int) (err error) {
		res, err = sweep.Merge(envs...)
		return err
	}); err != nil {
		return repOut{}, err
	}
	var text string
	tr.phase(root, "render", "sweep.render", func(int) error {
		text = res.Text()
		return nil
	})
	return repOut{text: []byte(text)}, nil
}

// campaignRun serves its document from an in-process campaign server over
// loopback HTTP, pinned to one shard per trial, and drains it with two
// pull workers of one trial thread each: a closed loop of two clients on
// two connections.
type campaignRun struct {
	specWorkload
	shards int
}

// campaignSite is one running campaign server with its run store.
type campaignSite struct {
	dir    string
	http   *httptest.Server
	client *sweep.CampaignClient
}

// start is the set-up up to the submitted campaign: run store, server,
// submit. It returns the campaign id.
func (w campaignRun) start(ctx context.Context, tr *tracer, root int) (*campaignSite, string, error) {
	data, err := w.encoded()
	if err != nil {
		return nil, "", err
	}
	doc, err := sweep.ParseSpecDoc(data)
	if err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp("", "nsmac-bench-store-")
	if err != nil {
		return nil, "", err
	}
	srv := sweep.NewCampaignServer(sweep.CampaignOptions{Store: &sweep.RunStore{Dir: dir}})
	h := sweep.CampaignHandler(srv)
	if tr != nil {
		h = serverTimer(tr, root, h)
	}
	hs := httptest.NewServer(h)
	site := &campaignSite{dir: dir, http: hs, client: sweep.NewCampaignClient(hs.URL, hs.Client())}
	id, err := site.client.Submit(ctx, sweep.NewCampaign(w.doc.Name, "grid", doc, w.shards))
	if err != nil {
		site.close()
		return nil, "", err
	}
	return site, id, nil
}

func (s *campaignSite) close() {
	s.http.Close()
	os.RemoveAll(s.dir)
}

// setup times server start, submit and the first lease grant.
func (w campaignRun) setup(ctx context.Context, n int) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		site, _, err := w.start(ctx, nil, -1)
		if err != nil {
			return 0, err
		}
		grant, err := site.client.Lease(ctx, "setup")
		total += time.Since(start)
		site.close()
		if err != nil {
			return 0, err
		}
		if grant == nil {
			return 0, fmt.Errorf("campaign set-up: no lease granted")
		}
	}
	return total, nil
}

func (w campaignRun) rep(ctx context.Context, tr *tracer, root int) (repOut, error) {
	var site *campaignSite
	var id string
	if err := tr.phase(root, "submit", "", func(int) (err error) {
		site, id, err = w.start(ctx, tr, root)
		return err
	}); err != nil {
		return repOut{}, err
	}
	defer site.close()

	var (
		leases, completes, dups atomic.Int64
		done                    = make(chan struct{})
		once                    sync.Once
		errMu                   sync.Mutex
		firstErr                error
	)
	stop := func(err error) {
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
		once.Do(func() { close(done) })
	}
	onEvent := func(ev sweep.CampaignWorkerEvent) {
		switch ev.Event {
		case "lease":
			leases.Add(1)
		case "complete":
			if completes.Add(1) == int64(w.shards) {
				stop(nil)
			}
		case "duplicate":
			dups.Add(1)
		case "fail", "heartbeat_lost":
			stop(fmt.Errorf("worker %s: %s on shard %d: %s", ev.Worker, ev.Event, ev.Shard, ev.Error))
		}
	}
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		transport := http.DefaultTransport.(*http.Transport).Clone()
		var rt http.RoundTripper = transport
		var exec sweep.Executor = sweep.Local{Workers: 1}
		if tr != nil {
			rt = rpcTimer{t: tr, base: transport, parent: root, lane: i}
			exec = tracedExec{t: tr, parent: root, lane: i, workers: 1}
		}
		worker := &sweep.CampaignWorker{
			Client:  sweep.NewCampaignClient(site.http.URL, &http.Client{Transport: rt}),
			ID:      fmt.Sprintf("w%d", i),
			Exec:    exec,
			OnEvent: onEvent,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer transport.CloseIdleConnections()
			if err := worker.Run(wctx); err != nil && wctx.Err() == nil {
				stop(err)
			}
		}()
	}
	select {
	case <-done:
	case <-ctx.Done():
		stop(ctx.Err())
	}
	cancel()
	wg.Wait()
	out := repOut{leases: int(leases.Load()), shards: w.shards}
	if tr != nil {
		tr.count("campaign.lease_attempts", leases.Load())
		tr.count("campaign.duplicates", dups.Load())
	}
	if firstErr != nil {
		return out, firstErr
	}
	err := tr.phase(root, "results", "campaign.results", func(int) error {
		text, complete, _, _, err := site.client.Results(ctx, id, "grid", "text")
		if err == nil && !complete {
			err = fmt.Errorf("campaign results incomplete after every shard completed")
		}
		out.text = []byte(text)
		return err
	})
	return out, err
}

// oracle adds to the shard check the campaign's own: its results must
// byte-equal the render of the same document run in one process.
func (w campaignRun) oracle(ctx context.Context, out []byte) (map[string]float64, error) {
	speedup, err := w.specWorkload.oracle(ctx, out)
	if err != nil {
		return nil, err
	}
	spec, err := w.doc.Resolve()
	if err != nil {
		return nil, err
	}
	spec.Workers = workers
	res, err := spec.Execute()
	if err != nil {
		return nil, err
	}
	if res.Text() != string(out) {
		return nil, fmt.Errorf("campaign results differ from the one-process run")
	}
	return speedup, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
