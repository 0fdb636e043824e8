// Package brnnbench defines the BRNN benchmark kernels: the batched
// Inference path on the paper architecture and on the shape a session
// runs, one training step, the gate row and the blocked pure-Go gemm.
// The kernels are shared by the `go test -bench` wrappers in internal/brnn
// and by cmd/benchbrnn, which emits the checked-in BENCH_brnn.json
// baseline, so the two can never measure different workloads — the same
// arrangement dspbench uses for the FFT engine.
package brnnbench

import (
	"math/rand"
	"testing"

	"vibguard/internal/brnn"
)

// Case is one benchmark kernel: Group matches a Benchmark<Group> wrapper
// in internal/brnn and Name is the sub-benchmark label.
type Case struct {
	Group string
	Name  string
	Fn    func(b *testing.B)
}

// model returns a model of hidden units per direction on 14 MFCCs with a
// binary head and seeded weights: 64 is the paper architecture, 32 the
// detector's default.
func model(b *testing.B, hidden int) *brnn.Model {
	m, err := brnn.New(brnn.Config{InputDim: 14, HiddenDim: hidden, NumClasses: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// forward times Forward on one T-frame sequence in a session whose
// scratch a first call has grown.
func forward(b *testing.B, m *brnn.Model, T int) {
	in := inputs(T, 14, 1)
	inf := m.NewInference()
	if _, err := inf.Forward(in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inf.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}

// inputs builds a deterministic T-frame MFCC-shaped sequence.
func inputs(T, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, T)
	for t := range out {
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		out[t] = x
	}
	return out
}

// benchT is the single-sequence benchmark length: ~1 s of audio at the
// 10 ms frame shift.
const benchT = 100

// batchSize is the multi-sequence workload: the concurrent-session count
// one serve worker's batch would amortize weights over.
const batchSize = 8

// Cases returns every benchmark kernel.
func Cases() []Case {
	return []Case{
		{"Forward", "batched-64x14-T100", func(b *testing.B) { forward(b, model(b, 64), benchT) }},
		// The shape a session runs: the detector's 32 units per direction
		// over the ~284 frames of a 2.9 s recording.
		{"Forward", "batched-32x14-T284", func(b *testing.B) { forward(b, model(b, 32), 284) }},
		{"ForwardBatch", "batched-8seq-64x14-T100", func(b *testing.B) {
			m := model(b, 64)
			seqs := make([][][]float64, batchSize)
			for s := range seqs {
				seqs[s] = inputs(benchT, 14, int64(s)+1)
			}
			inf := m.NewInference()
			if _, err := inf.ForwardBatch(seqs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inf.ForwardBatch(seqs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Predict", "batched-64x14-T100", func(b *testing.B) {
			m := model(b, 64)
			in := inputs(benchT, 14, 2)
			inf := m.NewInference()
			pred, err := inf.Predict(in, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pred, err = inf.Predict(in, pred); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"TrainStep", "64x14-T100", func(b *testing.B) {
			// One epoch over one sequence is one Trainer step (both
			// directions forward, the dense gradient, both directions
			// backward, the Adam update).
			m := model(b, 64)
			seq := brnn.Sequence{Inputs: inputs(benchT, m.InputDim(), 9), Labels: make([]int, benchT)}
			for t := range seq.Labels {
				seq.Labels[t] = t / 10 % 2
			}
			cfg := brnn.DefaultTrainConfig()
			cfg.Epochs = 1
			tr, err := brnn.NewTrainer(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			data := []brnn.Sequence{seq}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Train(data); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// One frame's gates on the paper's 64 units, the cell in place.
		{"GateRow", "64", func(b *testing.B) {
			const H = 64
			rng := rand.New(rand.NewSource(4))
			zx, zh, bias, gates := make([]float64, 4*H), make([]float64, 4*H), make([]float64, 4*H), make([]float64, 4*H)
			cell, tc, hid := make([]float64, H), make([]float64, H), make([]float64, H)
			for i := range zx {
				zx[i], zh[i], bias[i] = 2*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()/4
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				brnn.GateRow(zx, zh, bias, gates, cell, tc, hid)
			}
		}},
		{"MulMat", "blocked-100x14x256", func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			w := brnn.NewMatrixRandom(256, 14, rng)
			x := brnn.NewMatrixRandom(benchT, 14, rng)
			out := brnn.NewMatrix(benchT, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.MulMat(x, out); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}
