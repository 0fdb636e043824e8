package main

import (
	"runtime"
	"sort"
	"time"
)

// The speed probe is a fixed computation the benchmark owns, about 17 ms
// on the reference machine: float arithmetic on cached data (products of
// two probeN×probeN matrices) and streaming through a buffer larger than
// the caches, the two kinds of work the sensing pipeline does. The
// machines this benchmark runs on are shared virtual machines whose speed
// drops by up to half, for seconds to minutes at a time, when their hosts
// are busy. So a run samples the probe while the program under test is
// idle, between every two slices of measured time (and every two
// set-ups), and reports each slice's timings at the reference speed:
// multiplied by refProbeMs over the probe time around that slice. The
// probe slows with the machine, so the scaled timings keep the program's
// own cost. A sample is long enough to span many host scheduling slices,
// so it sees the share of the CPU the virtual machine gets, not only its
// clock speed.
const (
	probeN        = 128
	probeMultiply = 8       // matrix products per sample
	probeBufWords = 1 << 20 // 8 MiB stream buffer
	probeStreams  = 16      // passes over the stream buffer per sample
	probeSamples  = 5       // samples per probe phase
	// refProbeMs is the probe time that defines the reference speed,
	// close to what a 2-vCPU x86-64 virtual machine on a quiet host
	// takes. It only sets the unit of the scaled timings; comparisons
	// between runs do not depend on it.
	refProbeMs = 17.0
)

type speedProbe struct {
	a, b, c, buf []float64
	sink         float64
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		a:   make([]float64, probeN*probeN),
		b:   make([]float64, probeN*probeN),
		c:   make([]float64, probeN*probeN),
		buf: make([]float64, probeBufWords),
	}
	for i := range p.a {
		p.a[i] = float64(i%17) * 0.25
		p.b[i] = float64(i%13) * 0.5
	}
	return p
}

// sample returns the median of probeSamples probe times, in milliseconds.
// Call it only while no session is in flight, so the probe does not share
// the CPU with the program; it first completes a garbage collection, so
// no background marking of the program's garbage shares it either.
func (p *speedProbe) sample() float64 {
	runtime.GC()
	times := make([]float64, probeSamples)
	for s := range times {
		t0 := time.Now()
		for r := 0; r < probeMultiply; r++ {
			p.multiply()
		}
		for r := 0; r < probeStreams; r++ {
			p.stream()
		}
		times[s] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	sort.Float64s(times)
	return quantile(times, 0.5)
}

func (p *speedProbe) multiply() {
	for i := 0; i < probeN; i++ {
		ci := p.c[i*probeN : (i+1)*probeN]
		for j := range ci {
			ci[j] = 0
		}
		for k := 0; k < probeN; k++ {
			aik := p.a[i*probeN+k]
			bk := p.b[k*probeN : (k+1)*probeN]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// stream reads and rewrites one word of every cache line of the stream
// buffer, so its time is set by the machine's memory bandwidth.
func (p *speedProbe) stream() {
	s := 0.0
	for i := 0; i < len(p.buf); i += 8 {
		p.buf[i] = p.buf[i]*0.5 + 1
		s += p.buf[i]
	}
	p.sink += s
}

// scaleBetween is the factor that turns a time measured between two probe
// samples, before and after, into one at the reference speed.
func scaleBetween(before, after float64) float64 {
	return 2 * refProbeMs / (before + after)
}
