// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload as a closed loop with a single caller, drives the partitioner
// only through its public entry points (the call hpart makes, and
// server.New(...).Handler() for hpartd), checks every output, and prints
// its metrics as one JSON line on stdout. See README.md.
//
//	perfbench --workload fixed-bisect --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs every op a
// second time with layer timing on and prints the per-layer metrics.
// Normally started through run.py, which builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/multilevel"
	"repro/internal/partition"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every instance size: 1 is the benchmark; the
	// self-test shrinks it.
	scale    float64
	traceOut string // file the traced run writes its spans to ("" = none)
	// corrupt, when set, damages each returned assignment before it is
	// checked (self-test only).
	corrupt func(*partition.Problem, partition.Assignment)
}

type metricDef struct{ name, unit string }

// The metric names and units; BENCHMARK.json lists the same (the self-test
// checks that it does).
var (
	endToEndDefs = []metricDef{
		{"setup_s", "s"},
		{"solves_per_s", "1/s"},
		{"solve_ms_p50", "ms"},
		{"solve_ms_tail", "ms"},
		{"solve_calib_p50", "ratio"},
		{"cpu_ms_per_solve", "ms"},
		{"alloc_mb_per_solve", "MiB"},
		{"peak_rss_mb", "MiB"},
		{"mean_cut", "count"},
		{"mean_km1", "count"},
		{"ok_frac", "ratio"},
	}
	perLayerDefs = []metricDef{
		{"multilevel.coarsen_ms", "ms"},
		{"multilevel.levels", "count"},
		{"multilevel.coarsest_vertices", "count"},
		{"multilevel.init_ms", "ms"},
		{"multilevel.refine_localized_ms", "ms"},
		{"multilevel.refine_rounds_ms", "ms"},
		{"multilevel.refine_polish_ms", "ms"},
		{"multilevel.phase_coverage_k2", "ratio"},
		{"multilevel.phase_coverage_k4", "ratio"},
		{"fm.pins_scanned", "count"},
		{"fm.pin_scans_avoided", "count"},
		{"fm.nets_skipped", "count"},
		{"fm.bucket_updates_saved", "count"},
		{"hgr.read_ms", "ms"},
		{"server.engine_ms", "ms"},
		{"server.overhead_ms", "ms"},
		{"server.response_kb", "KiB"},
		{"server.hit_frac", "ratio"},
		{"server.bypass_frac", "ratio"},
		{"runtime.gc_ms_per_solve", "ms"},
		{"runtime.cpu_per_wall", "ratio"},
		{"host.calib_ms", "ms"},
		{"trace.solve_ms_p50", "ms"},
		{"trace.overhead_frac", "ratio"},
	}
)

// metric is one reported number; n is its sample count (0: the workload
// has no such layer, and the value is 0).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

type report struct {
	attempted, failed  int
	failures           []string
	endToEnd, perLayer map[string]metric
	env                map[string]any
	digest             uint64
}

// setupRepeats: set-up runs this many times and setup_s is the median.
const setupRepeats = 5

// calibRefMS is the calibration kernel's nominal time. Every time-valued
// end-to-end metric is host-normalized: a raw time t measured next to a
// calibration sample of c ms is reported as t*calibRefMS/c, the time it
// would take on a host where the kernel takes calibRefMS. Raw times go to
// stderr. On the two-vCPU host this benchmark was built on, raw times of
// identical work moved by up to 27% between sets of runs made minutes
// apart, more than any bound a regression gate can use; normalized times
// moved by up to 11%.
const calibRefMS = 20.0

// opRec is one successful op of the timed phase.
type opRec struct {
	op     opSpec
	res    *opResult
	calib  float64 // ms of the calibration sample taken just before
	prefix bool    // in the first minCycles cycles
}

func run(rc runConfig) (*report, error) {
	w, err := findWorkload(rc.workload)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))

	cal := newCalibrator()
	var d driver
	var setups, setupsRaw []float64
	for i := 0; i < setupRepeats; i++ {
		d = nil
		runtime.GC()
		calib := cal.sample()
		t0 := time.Now()
		if d, err = w.setup(rc); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		raw := time.Since(t0).Seconds()
		setupsRaw = append(setupsRaw, raw)
		setups = append(setups, raw*calibRefMS/calib)
	}
	// Warm pools, caches and page tables on an op the timed phase never
	// repeats (cycle -1 has its own seeds and, on hpartd, its own instance).
	if _, err := d.call(d.cycle(-1)[0], nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	rep := &report{env: hostInfo(), digest: d.digest()}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var plain, traced []opRec
	var firsts []opRec // the first op of each distinct input
	seen := map[[2]int]bool{}
	budget := time.Duration(rc.seconds * float64(time.Second))
	start := time.Now()
	for c := 0; c < w.minCycles || time.Since(start) < budget; c++ {
		for _, op := range d.cycle(c) {
			calib := cal.sample()
			rep.attempted++
			res, err := checkedCall(d, op, nil, rc.corrupt)
			if err != nil {
				rep.fail(fmt.Sprintf("cycle %d op %+v", c, op), err)
				continue
			}
			rec := opRec{op: op, res: res, calib: calib, prefix: c < w.minCycles}
			if key := [2]int{op.input, op.k}; c == 0 && !seen[key] {
				seen[key] = true
				firsts = append(firsts, rec)
			}
			if tr != nil {
				tr.op++
				rep.attempted++
				tres, err := checkedCall(d, op, tr, rc.corrupt)
				if err == nil && (tres.cut != res.cut || tres.hashA != res.hashA) {
					err = fmt.Errorf("traced call returned cut %d (hash %x), untraced %d (hash %x)", tres.cut, tres.hashA, res.cut, res.hashA)
				}
				if err != nil {
					rep.fail(fmt.Sprintf("traced cycle %d op %+v", c, op), err)
				} else {
					tres.a, tres.p = nil, nil
					traced = append(traced, opRec{op: op, res: tres, prefix: rec.prefix})
				}
			}
			res.a, res.p = nil, nil // checked and hashed; free them
			plain = append(plain, rec)
		}
	}
	for _, f := range firsts {
		rerun(d, f, w.workerCheck, rc.corrupt, rep)
	}
	rep.endToEnd = endToEnd(plain, setups, setupsRaw, rep)
	rep.perLayer = perLayer(plain, traced)
	if tr != nil && rc.traceOut != "" {
		if err := tr.write(rc.traceOut, rep.env); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return rep, nil
}

// rerun repeats the first op of a distinct input outside the timed phase:
// the answer must be bit-identical (on hpartd the repeat is served from the
// cache the first call filled) and, where the workload runs several
// workers, identical to a one-worker solve.
func rerun(d driver, f opRec, workerCheck bool, corrupt func(*partition.Problem, partition.Assignment), rep *report) {
	ops := []opSpec{f.op}
	if workerCheck {
		one := f.op
		one.oneWorker = true
		ops = append(ops, one)
	}
	for _, op := range ops {
		rep.attempted++
		res, err := checkedCall(d, op, nil, corrupt)
		if err == nil && res.hashA != f.res.hashA {
			err = fmt.Errorf("assignment hash %x, first run %x", res.hashA, f.res.hashA)
		}
		if err != nil {
			rep.fail(fmt.Sprintf("re-run %+v", op), err)
		}
	}
}

func (r *report) fail(what string, err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

// checkedCall makes one call and checks its answer.
func checkedCall(d driver, op opSpec, tr *tracer, corrupt func(*partition.Problem, partition.Assignment)) (*opResult, error) {
	res, err := d.call(op, tr)
	if err != nil {
		return nil, err
	}
	return res, check(res, corrupt)
}

// check verifies one answer against the instance the client posed: fixed
// vertices, OR-regions and balance (Problem.Feasible), then the reported
// cut and km1 against values recomputed from the assignment.
func check(r *opResult, corrupt func(*partition.Problem, partition.Assignment)) error {
	if corrupt != nil {
		corrupt(r.p, r.a)
	}
	if err := r.p.Feasible(r.a); err != nil {
		return err
	}
	if c := partition.Cut(r.p.H, r.a); c != r.cut {
		return fmt.Errorf("reported cut %d, recomputed %d", r.cut, c)
	}
	if c := partition.KMinus1(r.p.H, r.a); c != r.km1 {
		return fmt.Errorf("reported km1 %d, recomputed %d", r.km1, c)
	}
	r.hashA = hash(r.a)
	return nil
}

func hash(a partition.Assignment) uint64 {
	h := fnv.New64a()
	b := make([]byte, len(a))
	for i, p := range a {
		b[i] = byte(p)
	}
	h.Write(b)
	return h.Sum64()
}

func endToEnd(plain []opRec, setups, setupsRaw []float64, rep *report) map[string]metric {
	var wall, rawWall, ratio, cpu []float64
	var allocB, wallS, rawWallS, rawCPU float64
	var cuts, km1s []float64
	for _, r := range plain {
		c := r.res.cost
		norm := calibRefMS / r.calib
		wall = append(wall, ms(c.wall)*norm)
		rawWall = append(rawWall, ms(c.wall))
		ratio = append(ratio, ms(c.wall)/r.calib)
		cpu = append(cpu, ms(c.cpu)*norm)
		rawCPU += ms(c.cpu)
		allocB += float64(c.alloc)
		wallS += c.wall.Seconds() * norm
		rawWallS += c.wall.Seconds()
		if r.prefix {
			cuts = append(cuts, float64(r.res.cut))
			km1s = append(km1s, float64(r.res.km1))
		}
	}
	n := len(plain)
	rate, rawRate := 0.0, 0.0
	if wallS > 0 {
		rate, rawRate = float64(n)/wallS, float64(n)/rawWallS
	}
	q := tailPercentile(n)
	raw := func(v float64) string { return fmt.Sprintf("raw %.4g", v) }
	m := map[string]metric{
		"setup_s":            {Value: percentile(setups, 50), n: len(setups), note: raw(percentile(setupsRaw, 50))},
		"solves_per_s":       {Value: rate, n: n, note: raw(rawRate)},
		"solve_ms_p50":       {Value: percentile(wall, 50), n: n, note: raw(percentile(rawWall, 50))},
		"solve_ms_tail":      {Value: percentile(wall, q), n: n, note: fmt.Sprintf("p%g of %d, %s", q, n, raw(percentile(rawWall, q)))},
		"solve_calib_p50":    {Value: percentile(ratio, 50), n: n},
		"cpu_ms_per_solve":   {Value: mean(cpu), n: n, note: raw(rawCPU / float64(max(n, 1)))},
		"alloc_mb_per_solve": {Value: allocB / float64(max(n, 1)) / (1 << 20), n: n},
		"peak_rss_mb":        {Value: peakRSSMB(), n: 1},
		"mean_cut":           {Value: mean(cuts), n: len(cuts)},
		"mean_km1":           {Value: mean(km1s), n: len(km1s)},
		"ok_frac":            {Value: 1 - float64(rep.failed)/float64(rep.attempted), n: rep.attempted},
	}
	return withUnits(m, endToEndDefs)
}

func perLayer(plain, traced []opRec) map[string]metric {
	m := map[string]metric{}
	avg := func(name string, recs []opRec, keep func(opRec) bool, val func(opRec) float64) {
		var xs []float64
		for _, r := range recs {
			if keep(r) {
				xs = append(xs, val(r))
			}
		}
		m[name] = metric{Value: mean(xs), n: len(xs)}
	}
	hasPhases := func(r opRec) bool { return r.res.phases != nil }
	prefixPhases := func(r opRec) bool { return r.prefix && r.res.phases != nil }
	phaseMS := func(ns func(opRec) int64) func(opRec) float64 {
		return func(r opRec) float64 { return float64(ns(r)) / 1e6 }
	}
	avg("multilevel.coarsen_ms", traced, hasPhases, phaseMS(func(r opRec) int64 { return r.res.phases.CoarsenNS }))
	if byCache := coarsenByCache(traced); byCache != "" {
		c := m["multilevel.coarsen_ms"]
		c.note = byCache
		m["multilevel.coarsen_ms"] = c
	}
	avg("multilevel.init_ms", traced, hasPhases, phaseMS(func(r opRec) int64 { return r.res.phases.InitNS }))
	avg("multilevel.refine_localized_ms", traced, hasPhases, phaseMS(func(r opRec) int64 { return r.res.phases.RefineLocalizedNS }))
	avg("multilevel.refine_rounds_ms", traced, hasPhases, phaseMS(func(r opRec) int64 { return r.res.phases.RefineParallelNS }))
	avg("multilevel.refine_polish_ms", traced, hasPhases, phaseMS(func(r opRec) int64 { return r.res.phases.RefineNS }))
	avg("multilevel.levels", traced, func(r opRec) bool { return r.prefix }, func(r opRec) float64 { return float64(r.res.levels) })
	avg("multilevel.coarsest_vertices", traced, func(r opRec) bool { return r.prefix && r.res.coarsest > 0 }, func(r opRec) float64 { return float64(r.res.coarsest) })
	avg("fm.pins_scanned", traced, prefixPhases, func(r opRec) float64 { return float64(r.res.phases.Kernel.PinsScanned) })
	avg("fm.pin_scans_avoided", traced, prefixPhases, func(r opRec) float64 { return float64(r.res.phases.Kernel.PinScansAvoided) })
	avg("fm.nets_skipped", traced, prefixPhases, func(r opRec) float64 { return float64(r.res.phases.Kernel.NetsSkipped) })
	avg("fm.bucket_updates_saved", traced, prefixPhases, func(r opRec) float64 { return float64(r.res.phases.Kernel.BucketUpdatesSaved) })
	avg("hgr.read_ms", traced, func(r opRec) bool { return r.res.cache != "" }, func(r opRec) float64 { return r.res.hgrRead })
	for _, k := range []int{2, 4} {
		var sum multilevel.PhaseStats
		var outside float64
		var n int
		for _, r := range traced {
			if st := r.res.phases; r.op.k == k && st != nil {
				sum.CoarsenNS += st.CoarsenNS
				sum.InitNS += st.InitNS
				sum.RefineParallelNS += st.RefineParallelNS
				sum.RefineLocalizedNS += st.RefineLocalizedNS
				sum.RefineNS += st.RefineNS
				outside += r.res.outside
				n++
			}
		}
		mt := metric{n: n}
		if outside > 0 {
			mt.Value = float64(sum.TotalNS()) / 1e6 / outside
			per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
			mt.note = fmt.Sprintf("per op: coarsen %.1f, init %.1f, rounds %.1f, localized %.1f, polish %.1f of %.1f ms",
				per(sum.CoarsenNS), per(sum.InitNS), per(sum.RefineParallelNS), per(sum.RefineLocalizedNS), per(sum.RefineNS), outside/float64(n))
		}
		m[fmt.Sprintf("multilevel.phase_coverage_k%d", k)] = mt
	}

	isServer := func(r opRec) bool { return r.res.cache != "" }
	avg("server.engine_ms", plain, isServer, func(r opRec) float64 { return r.res.engineMS })
	avg("server.overhead_ms", plain, isServer, func(r opRec) float64 { return ms(r.res.cost.wall) - r.res.engineMS })
	avg("server.response_kb", plain, isServer, func(r opRec) float64 { return r.res.respKB })
	avg("server.hit_frac", plain, isServer, func(r opRec) float64 { return b2f(r.res.cache == "hit") })
	avg("server.bypass_frac", plain, isServer, func(r opRec) float64 { return b2f(r.res.cache == "bypass") })

	var gc, cpu, wall float64
	var calib, plainWall, tracedWall []float64
	for _, r := range plain {
		gc += ms(r.res.cost.gc)
		cpu += ms(r.res.cost.cpu)
		wall += ms(r.res.cost.wall)
		calib = append(calib, r.calib)
		plainWall = append(plainWall, ms(r.res.cost.wall))
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, ms(r.res.cost.wall))
	}
	m["runtime.gc_ms_per_solve"] = metric{Value: gc / float64(max(1, len(plain))), n: len(plain)}
	m["runtime.cpu_per_wall"] = metric{Value: cpu / max(wall, 1e-9), n: len(plain)}
	m["host.calib_ms"] = metric{Value: percentile(calib, 50), n: len(calib)}
	tp50 := percentile(tracedWall, 50)
	m["trace.solve_ms_p50"] = metric{Value: tp50, n: len(tracedWall)}
	over := metric{n: len(tracedWall)}
	if up50 := percentile(plainWall, 50); len(tracedWall) > 0 && up50 > 0 {
		over.Value = tp50/up50 - 1
		over.note = fmt.Sprintf("traced p50 %.3f ms vs untraced p50 %.3f ms in the same run", tp50, up50)
	}
	m["trace.overhead_frac"] = over
	return withUnits(m, perLayerDefs)
}

// coarsenByCache splits hpartd's coarsening time by cache outcome; a hit
// must read zero.
func coarsenByCache(traced []opRec) string {
	sum, n := map[string]float64{}, map[string]int{}
	for _, r := range traced {
		if r.res.cache != "" && r.res.phases != nil {
			sum[r.res.cache] += float64(r.res.phases.CoarsenNS) / 1e6
			n[r.res.cache]++
		}
	}
	out := ""
	for _, kind := range []string{"miss", "hit", "bypass"} {
		if n[kind] > 0 {
			out += fmt.Sprintf("%s %.1f ms (n=%d) ", kind, sum[kind]/float64(n[kind]), n[kind])
		}
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func withUnits(m map[string]metric, defs []metricDef) map[string]metric {
	for _, d := range defs {
		v := m[d.name]
		v.Unit = d.unit
		m[d.name] = v
	}
	return m
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	rc := runConfig{scale: 1}
	flag.StringVar(&rc.workload, "workload", "", "workload: fixed-bisect, free-huge-2w or hpartd-repeat")
	flag.Uint64Var(&rc.seed, "seed", 1, "workload seed; every input derives from it")
	flag.Float64Var(&rc.seconds, "seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&rc.traceOut, "trace-out", "", "file a traced run writes its spans to")
	flag.Parse()
	if err := func() error {
		if *traceFlag != 0 && *traceFlag != 1 {
			return errors.New("--trace must be 0 or 1")
		}
		if rc.seconds <= 0 {
			return errors.New("--seconds must be positive")
		}
		rc.trace = *traceFlag == 1
		rep, err := run(rc)
		if err != nil {
			return err
		}
		metrics := rep.endToEnd
		if rc.trace {
			metrics = rep.perLayer
		}
		printDetail(os.Stderr, rc, rep, metrics)
		b, err := json.Marshal(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printDetail(f *os.File, rc runConfig, rep *report, metrics map[string]metric) {
	env, _ := json.Marshal(rep.env)
	fmt.Fprintf(f, "# %s seed=%d trace=%v host=%s inputs=%016x\n", rc.workload, rc.seed, rc.trace, env, rep.digest)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := metrics[name]
		fmt.Fprintf(f, "%-32s %14.4f %-6s n=%d %s\n", name, v.Value, v.Unit, v.n, v.note)
	}
	for _, msg := range rep.failures {
		fmt.Fprintln(f, "FAILED:", msg)
	}
}
