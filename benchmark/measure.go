package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of samples by linear
// interpolation between closest ranks. samples need not be sorted and is
// not modified.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as resolved (the choosing-metrics rule).
const minBeyond = 10

// resolvable reports whether n samples support the q-quantile: at least
// minBeyond of them must lie beyond it.
func resolvable(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9 // 100·(1−0.9) is 9.999…98 in floating point
}

// cpuTime returns the CPU time the process has used so far, all threads,
// from the scheduler's nanosecond accounting (CLOCK_PROCESS_CPUTIME_ID).
// getrusage reports the same total but sampled at the kernel's tick, which
// is as long as a whole op here.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0 // cannot fail for this clock with a valid pointer
	}
	return time.Duration(ts.Nano())
}

// sample is what the closed loop records about one op. A cycle runs from
// the op's submission to the submission of the client's next op: the op
// itself, the checking of its result, and the making of the next op.
type sample struct {
	Class     string  `json:"class"`
	LatencyMS float64 `json:"latency_ms"` // submission → last row consumed
	CycleMS   float64 `json:"cycle_ms"`
	CPUMS     float64 `json:"cpu_ms"` // process CPU time over the cycle
}

// loopResult is the outcome of one measured closed-loop phase, which may
// have run in several stretches.
type loopResult struct {
	Samples    []sample // one per attempted op, failed ones included
	Failed     int
	FirstError string
	AllocBytes uint64
}

// closedLoop drives the workload's surface for dur with one client, which
// sends op i+1 of its stream only when op i has been answered and checked,
// and adds what it measured to out; the stream goes on from where out's
// samples end. An op's latency runs from submission to its last row
// consumed; checking happens after that clock stops. No op starts after dur
// has passed.
//
// Between two cycles, outside every clock, the client runs a garbage
// collection. With the pinned GOGC no op allocates enough to start one
// itself, so every op runs on the same heap with the collector idle. Left
// to its own schedule the collector hit one op in five, somewhere else in
// every run, and class floors over the remaining ops spread by 10% from run
// to run where they now spread by 2%. What an op allocates is reported as
// alloc_mb_per_query; what collecting it costs is in no timing.
func closedLoop(ctx context.Context, e *env, dur time.Duration, out *loopResult) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	t0, cpu0 := start, cpuTime()
	for i := len(out.Samples); t0.Sub(start) < dur && ctx.Err() == nil; i++ {
		o := e.w.next(e.w, e.seed, 0, i)
		res, err := e.exec(ctx, o, e.w.Surface)
		answered := time.Now()
		if err == nil {
			err = check(o, res, e.oracles[o.Param])
		}
		if err != nil {
			out.Failed++
			if out.FirstError == "" {
				out.FirstError = err.Error()
			}
		}
		t1, cpu1 := time.Now(), cpuTime()
		out.Samples = append(out.Samples, sample{
			Class:     o.class(),
			LatencyMS: ms(answered.Sub(t0)),
			CycleMS:   ms(t1.Sub(t0)),
			CPUMS:     ms(cpu1 - cpu0),
		})
		runtime.GC()
		t0, cpu0 = time.Now(), cpuTime()
	}
	runtime.ReadMemStats(&ms1)
	out.AllocBytes += ms1.TotalAlloc - ms0.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns every sample's raw latency.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.LatencyMS
	}
	return out
}

// floors replaces each sample's value by the smallest value any sample of
// its class took in the phase. The ops of a class do the same work, and the
// shared host only ever adds to a timing — a stolen vCPU, a neighbour on the
// sibling hyperthread, a collection that happened to fall in this op — so
// the class's floor is the cost of the work itself, and it is the one
// statistic of a phase that repeats from run to run on this machine (see
// README.md, "Steadiness").
func floors(samples []sample, value func(sample) float64) []float64 {
	floor := map[string]float64{}
	for _, s := range samples {
		if v, ok := floor[s.Class]; !ok || value(s) < v {
			floor[s.Class] = value(s)
		}
	}
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = floor[s.Class]
	}
	return out
}

// setupTime is the set-up time of a pass that set its workload up several
// times: the sum over the set-up's steps of the shortest that step took in
// any of the set-ups — class floors again, a step being a class. setups
// holds one env.steps per set-up, all of the same length.
func setupTime(setups [][]float64) float64 {
	sum := 0.0
	for k := range setups[0] {
		floor := setups[0][k]
		for _, steps := range setups[1:] {
			floor = min(floor, steps[k])
		}
		sum += floor
	}
	return sum
}

func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// endToEnd derives the end-to-end metrics of a measured phase. Every
// timing is taken over the ops' class floors: the percentiles describe the
// spread of work across the op stream (cheap and dear parameters, cached
// and sampled requests), not the spread the host adds to equal work.
func endToEnd(r loopResult, setupS float64) map[string]float64 {
	latency := floors(r.Samples, func(s sample) float64 { return s.LatencyMS })
	cycle := floors(r.Samples, func(s sample) float64 { return s.CycleMS })
	cpu := floors(r.Samples, func(s sample) float64 { return s.CPUMS })
	return map[string]float64{
		"setup_s":            setupS,
		"query_p50_ms":       median(latency),
		"query_p90_ms":       percentile(latency, 0.9),
		"queries_per_s":      1000 / mean(cycle),
		"cpu_ms_per_query":   mean(cpu),
		"alloc_mb_per_query": float64(r.AllocBytes) / (1 << 20) / float64(len(r.Samples)),
	}
}
