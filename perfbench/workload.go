package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/gen"
	"repro/internal/hgr"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/server"
)

// Scales of the generated instances at runConfig.scale == 1.
const (
	// hugeScale shrinks HUGE1 (1M cells) to 100k cells: about 2 s per
	// solve on two workers, enough solves per run for a median.
	hugeScale = 0.1
	// daemonScale shrinks IBM01S to about 3.7k cells, so one five-request
	// cycle takes about two seconds and a run holds many cycles.
	daemonScale = 0.3
	// daemonFixFraction is the share of vertices each hpartd instance fixes.
	daemonFixFraction = 0.1
	// tol is the balance tolerance of every instance, hpart's default.
	tol = 0.02
)

// opSpec is one closed-loop call. input names the distinct input it
// reads; seed is the solver seed.
type opSpec struct {
	input int
	k     int
	seed  uint64
	// oneWorker runs the op with every worker knob at 1 (the
	// worker-invariance reference).
	oneWorker bool
}

// opResult is what one call returned, plus what the check needs.
type opResult struct {
	p        *partition.Problem // the instance as the client posed it
	a        partition.Assignment
	cut, km1 int64  // as reported by the program
	cost     cost   // of the public entry point alone
	hashA    uint64 // of a, set by check

	// Filled by traced calls (phases, levels, outside) and by hpartd calls.
	phases   *multilevel.PhaseStats
	levels   int
	coarsest int
	outside  float64 // ms of the call the phase counters should add up to
	hgrRead  float64 // ms, traced hpartd calls
	cache    string
	engineMS float64
	respKB   float64
}

// driver runs one workload's ops. A nil tracer means an untraced call.
type driver interface {
	// cycle returns cycle c of the repeating op pattern; it prepares the
	// cycle's inputs, so it is never timed.
	cycle(c int) []opSpec
	call(op opSpec, tr *tracer) (*opResult, error)
	// digest identifies the generated inputs.
	digest() uint64
}

// workload is one benchmark workload. See README.md for why each exists.
type workload struct {
	name  string
	procs int // GOMAXPROCS of the run
	// minCycles are always run, whatever the time budget: the quality
	// metrics and exact counters cover exactly these cycles.
	minCycles int
	// workerCheck re-runs each distinct input at one worker, which must
	// give the identical assignment.
	workerCheck bool
	setup       func(rc runConfig) (driver, error)
}

var workloads = []workload{
	{name: "fixed-bisect", procs: 1, minCycles: 2, setup: setupFixedBisect},
	{name: "free-huge-2w", procs: 2, minCycles: 5, workerCheck: true, setup: setupFreeHuge},
	{name: "hpartd-repeat", procs: 1, minCycles: 6, setup: setupDaemon},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// hgrText generates preset at scale and renders it as hMetis .hgr text,
// the form a user hands to hpart -hgr or uploads to hpartd. Pads get
// weight 1, since .hgr weights are >= 1. Netlists never depend on the
// workload seed: the presets stand in for fixed published circuits, and
// HUGE1 regenerated under other generator seeds differs in cut and solve
// time by up to 2x, which would swamp every timing.
func hgrText(pr gen.Preset, scale float64) (string, error) {
	nl, err := gen.Generate(pr.Params.Scaled(scale))
	if err != nil {
		return "", err
	}
	h := nl.H
	b := hypergraph.NewBuilder(1)
	for v := 0; v < h.NumVertices(); v++ {
		b.AddVertex(max(1, h.Weight(v)))
	}
	pins := []int{}
	for e := 0; e < h.NumNets(); e++ {
		pins = pins[:0]
		for _, v := range h.Pins(e) {
			pins = append(pins, int(v))
		}
		b.AddWeightedNet(h.NetWeight(e), pins...)
	}
	h2, err := b.Build()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := hgr.WriteHGR(&sb, h2); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// readInstance is hpart -hgr <text> -k 2 -fix-fraction frac -fix-seed seed.
func readInstance(text string, frac float64, fixSeed uint64) (*partition.Problem, error) {
	p, err := hgr.ReadProblem(strings.NewReader(text), nil, 2, tol)
	if err != nil {
		return nil, err
	}
	partition.ApplyFixFraction(p, frac, fixSeed)
	return p, hgr.CheckFeasible(p)
}

// hpartConfig is the engine config hpart builds from its flags with every
// worker flag at workers; at workers=1 these are hpart's defaults.
func hpartConfig(workers int) multilevel.Config {
	return multilevel.Config{Workers: workers, CoarsenWorkers: workers, RefineWorkers: workers, LocalizedFMWorkers: workers}
}

// solver drives 2-way solves through the call hpart makes.
type solver struct {
	problems []*partition.Problem
	cfg      multilevel.Config
	seed     uint64
}

func setupFixedBisect(rc runConfig) (driver, error) {
	s := &solver{cfg: hpartConfig(1), seed: rc.seed}
	for i, pr := range gen.IBMPresets() {
		text, err := hgrText(pr, rc.scale)
		if err != nil {
			return nil, err
		}
		for fi, frac := range []float64{0.1, 0.3} {
			p, err := readInstance(text, frac, mix(rc.seed, uint64(i), uint64(fi)))
			if err != nil {
				return nil, fmt.Errorf("%s fix %.1f: %w", pr.Name, frac, err)
			}
			s.problems = append(s.problems, p)
		}
	}
	return s, nil
}

func setupFreeHuge(rc runConfig) (driver, error) {
	pr, err := gen.PresetByName("HUGE1")
	if err != nil {
		return nil, err
	}
	text, err := hgrText(pr, hugeScale*rc.scale)
	if err != nil {
		return nil, err
	}
	p, err := readInstance(text, 0, 0)
	if err != nil {
		return nil, err
	}
	return &solver{problems: []*partition.Problem{p}, cfg: hpartConfig(2), seed: rc.seed}, nil
}

// cycle solves every input once; the solver seed changes per cycle.
func (s *solver) cycle(c int) []opSpec {
	ops := make([]opSpec, len(s.problems))
	for i := range ops {
		ops[i] = opSpec{input: i, k: 2, seed: mix(s.seed, uint64(c), 0x5017e)}
	}
	return ops
}

func (s *solver) call(op opSpec, tr *tracer) (*opResult, error) {
	p := s.problems[op.input]
	cfg := s.cfg
	if op.oneWorker {
		cfg = hpartConfig(1)
	}
	rng := rand.New(rand.NewPCG(op.seed, 0x42)) // hpart's seeding of -seed
	if tr == nil {
		var res *multilevel.Result
		var err error
		c := measure(func() { res, err = multilevel.ParallelMultistart(p, cfg, 1, rng) })
		if err != nil {
			return nil, err
		}
		return &opResult{p: p, a: res.Assignment, cut: res.Cut, km1: res.KMinus1, cost: c}, nil
	}
	// A one-start multistart is BuildHierarchy + Descend on the start's
	// RNG, rand.NewPCG(seed drawn from rng, 0) (documented on Multistart);
	// split, each half gets its own span. The check compares the result
	// with the untraced call's.
	cfg.Stats = &multilevel.PhaseStats{}
	r := rand.New(rand.NewPCG(rng.Uint64(), 0))
	root := tr.begin("op", -1)
	sp := tr.begin("multilevel.BuildHierarchy", root)
	h, err := multilevel.BuildHierarchy(p, cfg, r)
	outside := tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("multilevel.Descend", root)
	res, err := h.Descend(r)
	outside += tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	countPhases(tr, root, cfg.Stats)
	return &opResult{
		p: p, a: res.Assignment, cut: res.Cut, km1: res.KMinus1, cost: cost{wall: outside},
		phases: cfg.Stats, levels: h.Levels(), coarsest: h.Coarsest().H.NumVertices(), outside: ms(outside),
	}, nil
}

func (s *solver) digest() uint64 {
	h := fnv.New64a()
	for _, p := range s.problems {
		fmt.Fprintf(h, "%x;", p.Fingerprint())
	}
	fmt.Fprintf(h, "%x;", s.cycle(0)[0].seed)
	return h.Sum64()
}

func countPhases(tr *tracer, id int, st *multilevel.PhaseStats) {
	k := st.Kernel.Snapshot()
	for name, v := range map[string]int64{
		"coarsen_ns": st.CoarsenNS, "init_ns": st.InitNS, "refine_rounds_ns": st.RefineParallelNS,
		"refine_localized_ns": st.RefineLocalizedNS, "refine_polish_ns": st.RefineNS,
		"pins_scanned": k.PinsScanned, "pin_scans_avoided": k.PinScansAvoided,
		"nets_skipped": k.NetsSkipped, "bucket_updates_saved": k.BucketUpdatesSaved,
	} {
		tr.count(id, name, v)
	}
}

// daemon is one client of an in-process hpartd, uploading each instance as
// .hgr + .fix text. Every cycle poses a new instance (a new fix seed, so a
// new cache key) and sends one k=2 request that misses the hierarchy
// cache, three k=2 requests with other seeds that hit it, and one k=4
// request that bypasses it.
type daemon struct {
	seed    uint64
	text    string // the .hgr upload
	textJS  string // ... JSON-encoded once
	h       *hypergraph.Hypergraph
	servers [2]http.Handler // [1] is the traced run's twin, so both see the same cache states
	insts   map[int]*instance
}

type instance struct {
	fix, fixJS string
	probs      map[int]*partition.Problem // by k, for the checks
}

// hpartdServer is server.New at hpartd's flag defaults.
func hpartdServer() http.Handler {
	return server.New(server.Config{CacheEntries: 32, RunWorkers: 1, CoarsenWorkers: 1, RefineWorkers: 1, LocalizedFMWorkers: 1}).Handler()
}

func setupDaemon(rc runConfig) (driver, error) {
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		return nil, err
	}
	text, err := hgrText(pr, daemonScale*rc.scale)
	if err != nil {
		return nil, err
	}
	h, err := hgr.ReadHGR(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(text)
	if err != nil {
		return nil, err
	}
	d := &daemon{seed: rc.seed, text: text, textJS: string(js), h: h, insts: map[int]*instance{}}
	d.servers[0] = hpartdServer()
	if rc.trace {
		d.servers[1] = hpartdServer()
	}
	return d, nil
}

func (d *daemon) cycle(c int) []opSpec {
	if _, ok := d.insts[c]; !ok {
		d.insts[c] = d.newInstance(mix(d.seed, uint64(c), 0xf1c))
	}
	var ops []opSpec
	for i := 0; i < 4; i++ {
		ops = append(ops, opSpec{input: c, k: 2, seed: mix(d.seed, uint64(c), uint64(i))})
	}
	return append(ops, opSpec{input: c, k: 4, seed: mix(d.seed, uint64(c), 0)})
}

func (d *daemon) newInstance(fixSeed uint64) *instance {
	p2 := partition.NewFree(d.h, 2, tol)
	partition.ApplyFixFraction(p2, daemonFixFraction, fixSeed)
	p4 := partition.NewFree(d.h, 4, tol)
	for v := 0; v < d.h.NumVertices(); v++ {
		if part, ok := p2.FixedPart(v); ok {
			p4.Fix(v, part)
		}
	}
	var sb strings.Builder
	_ = hgr.WriteFix(&sb, p2) // a strings.Builder cannot fail
	js, _ := json.Marshal(sb.String())
	return &instance{fix: sb.String(), fixJS: string(js), probs: map[int]*partition.Problem{2: p2, 4: p4}}
}

func (d *daemon) call(op opSpec, tr *tracer) (*opResult, error) {
	inst := d.insts[op.input]
	body := fmt.Sprintf(`{"hgr":{"hgr":%s,"fix":%s},"k":%d,"seed":%d}`, d.textJS, inst.fixJS, op.k, op.seed)
	srv := d.servers[0]
	res := &opResult{p: inst.probs[op.k]}
	root := -1
	if tr != nil {
		srv = d.servers[1]
		root = tr.begin("op", -1)
		// hgr.read_ms: the ingestion every request repeats, hits included.
		sp := tr.begin("hgr.ReadProblem", root)
		_, err := hgr.ReadProblem(strings.NewReader(d.text), strings.NewReader(inst.fix), op.k, tol)
		res.hgrRead = ms(tr.end(sp))
		if err != nil {
			return nil, err
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(body))
	rec := httptest.NewRecorder()
	sp := -1
	if tr != nil {
		sp = tr.begin("server.Handler", root)
	}
	res.cost = measure(func() { srv.ServeHTTP(rec, req) })
	if tr != nil {
		tr.end(sp)
		tr.end(root)
	}
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("hpartd answered %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	res.respKB = float64(rec.Body.Len()) / 1024
	var resp server.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if resp.Truncated {
		return nil, fmt.Errorf("hpartd truncated the run")
	}
	res.a = make(partition.Assignment, len(resp.Assignment))
	for v, part := range resp.Assignment {
		if part < -128 || part > 127 {
			return nil, fmt.Errorf("vertex %d assigned to part %d", v, part)
		}
		res.a[v] = int8(part)
	}
	res.cut, res.km1 = resp.Cut, resp.KMinus1
	res.cache, res.engineMS, res.levels = resp.Cache, resp.ElapsedMS, resp.Levels
	res.phases, res.outside = resp.Phases, resp.ElapsedMS
	if tr != nil && resp.Phases != nil {
		tr.spans[root].Name = "op:" + resp.Cache
		countPhases(tr, root, resp.Phases)
	}
	return res, nil
}

func (d *daemon) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x;", d.h.Fingerprint())
	for c := 0; c < 2; c++ {
		d.cycle(c)
		fmt.Fprintf(h, "%x;", d.insts[c].probs[2].Fingerprint())
	}
	return h.Sum64()
}
