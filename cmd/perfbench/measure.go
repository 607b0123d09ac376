package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"

	"github.com/ais-snu/localut"
)

// hostCost is what one rep cost the host.
type hostCost struct {
	wall, cpu      float64 // seconds at reference machine speed; cpu is process user+sys
	rawWall        float64 // seconds as the clock read them
	speed          float64 // machine speed around the rep, 1 = reference
	mallocs, bytes uint64  // runtime.MemStats Mallocs / TotalAlloc deltas
	rssMB          float64 // VmHWM after the rep (reset before it)
	gcCycles       uint32
	gcPauseNs      uint64
	gcCPU          float64 // seconds of GC CPU, all of it
}

// rep is one measured run of a workload.
type rep struct {
	host   hostCost
	out    *outcome
	digest [sha256.Size]byte
}

// quiesce empties the heap and resets the peak-RSS watermark so that
// every rep starts from the same host state.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 resets VmHWM to the current RSS (proc(5)); where the
	// file is missing or read-only, peak_rss_mb is the process peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM from /proc/self/status (kB).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// calibRefSeconds is what calibrate takes on this repository's reference
// box (2 vCPUs of a Xeon at 2.1 GHz) when no neighbour shares the core. It
// only fixes the scale: times are reported as measured seconds x
// calibRefSeconds / calibration seconds, so on a quiet reference box they
// read as plain seconds.
const calibRefSeconds = 0.100

// calibrate times a fixed allocation-free kernel: a math.Log sum, which is
// bound by floating-point throughput, and sift-downs on a 4096-entry
// binary heap, which are bound by branches and cache latency. These are
// what the simulator's event loops are made of. On the shared two-core
// sandbox a rep's wall and CPU time move by up to 2x within minutes as
// neighbours come and go; the kernel slows down with them, so dividing by
// it takes out the part of that drift that lasts longer than a rep. README
// has the measurements behind the kernel's length and its mix.
func calibrate() float64 {
	t0 := time.Now()
	sum := 0.0
	for i := 1; i <= 4000000; i++ {
		sum += math.Log(float64(i))
	}
	var heap [4096]float64
	for i := range heap {
		heap[i] = float64(i)
	}
	x := uint64(88172645463325252) // xorshift64
	for it := 0; it < 800000; it++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap[0] += float64(x&1023) + 1
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(heap) {
				break
			}
			if r := c + 1; r < len(heap) && heap[r] < heap[c] {
				c = r
			}
			if heap[i] <= heap[c] {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	calibSink = sum + heap[0]
	return time.Since(t0).Seconds()
}

var calibSink float64

// measure runs one rep of w from a quiesced heap, between two runs of the
// calibration kernel, and digests its reports outside the timed region.
// The quick scale skips the calibration: its numbers are not comparable
// anyway, and the kernel would be most of a smoke run.
func measure(w *workload, seed int64, quick bool, span spanFunc) rep {
	quiesce()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	speed := 1.0
	var before float64
	if !quick {
		before = calibrate()
	}
	gc0, cpu0, t0 := gcCPUSeconds(), cpuSeconds(), time.Now()
	out := w.run(seed, quick, span)
	wall := time.Since(t0).Seconds()
	cpu1, gc1 := cpuSeconds(), gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	if !quick {
		speed = 2 * calibRefSeconds / (before + calibrate())
	}
	r := rep{out: out, host: hostCost{
		wall: wall * speed, cpu: (cpu1 - cpu0) * speed, rawWall: wall, speed: speed,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		rssMB:    rss,
		gcCycles: m1.NumGC - m0.NumGC, gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		gcCPU: gc1 - gc0,
	}}
	r.digest = digest(out.reports)
	out.reports = nil // the digest is all that is kept of them
	return r
}

// digest is the SHA-256 of the reports' JSON encodings: the determinism
// floor compares it with rep 0's. A fleet timeline runs to half a million
// entries, which encoding/json would spend a third of a rep on, so it is
// hashed field by field instead; a field added to ClusterTimelineEvent
// has to be added to hashTimeline too.
func digest(reports []interface{}) [sha256.Size]byte {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range reports {
		if fleet, ok := r.(*localut.ClusterReport); ok {
			head := *fleet
			head.Timeline = nil
			hashTimeline(h, fleet.Timeline)
			r = &head
		}
		if err := enc.Encode(r); err != nil {
			// A report that cannot be encoded (a NaN statistic) still
			// gets a digest, and a different one from a clean rep.
			h.Write([]byte(err.Error()))
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func hashTimeline(h hash.Hash, events []localut.ClusterTimelineEvent) {
	buf := make([]byte, 0, 1<<16)
	for i := range events {
		ev := &events[i]
		for _, f := range []float64{ev.Seconds, ev.P99, ev.RecoverSeconds} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		for _, n := range []int{ev.Instance, ev.Replica, ev.Active, ev.Samples, ev.Domain} {
			buf = binary.AppendVarint(buf, int64(n))
		}
		buf = append(append(append(append(buf, ev.Kind...), 0), ev.Action...), 0)
		if len(buf) > cap(buf)-256 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
}

// dist summarizes a small sample. With n this small no percentile has ten
// samples beyond it, so only the median and quartiles are reported.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the
// numbers agree with the acceptance driver's.
func summarize(vals []float64) dist {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return dist{}
	}
	q := func(p float64) float64 {
		if n == 1 {
			return s[0]
		}
		pos := p*float64(n+1) - 1 // zero-based fractional index
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return dist{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Min: s[0], Max: s[n-1], N: n}
}
