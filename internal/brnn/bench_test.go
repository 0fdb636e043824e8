package brnn_test

import (
	"testing"

	"vibguard/internal/brnn/brnnbench"
)

// The benchmark bodies live in brnnbench so that cmd/benchbrnn (which
// writes the BENCH_brnn.json baseline) measures exactly the same kernels
// as `go test -bench` / `make bench-brnn` — the dspbench arrangement.

func runGroup(b *testing.B, group string) {
	ran := false
	for _, c := range brnnbench.Cases() {
		if c.Group == group {
			ran = true
			b.Run(c.Name, c.Fn)
		}
	}
	if !ran {
		b.Fatalf("no benchmark cases in group %q", group)
	}
}

// BenchmarkForward measures single-sequence inference in a batched
// Inference session (zero steady-state allocations): on the paper config
// (64 units per direction, 14 MFCCs, ~1 s of frames) and on the shape a
// session runs (32 units over 284 frames).
func BenchmarkForward(b *testing.B) { runGroup(b, "Forward") }

// BenchmarkForwardBatch measures the multi-sequence batch entry point.
func BenchmarkForwardBatch(b *testing.B) { runGroup(b, "ForwardBatch") }

// BenchmarkPredict measures argmax inference into a reused buffer.
func BenchmarkPredict(b *testing.B) { runGroup(b, "Predict") }

// BenchmarkMulMat measures the blocked pure-Go matrix-matrix kernel on the
// Wx projection shape.
func BenchmarkMulMat(b *testing.B) { runGroup(b, "MulMat") }

// BenchmarkTrainStep measures one training step on the paper config, the
// two LSTM directions running concurrently.
func BenchmarkTrainStep(b *testing.B) { runGroup(b, "TrainStep") }

// BenchmarkGateRow measures one frame's LSTM gate row on the paper's 64
// units: four sigmoid or tanh gates, the cell and the hidden state.
func BenchmarkGateRow(b *testing.B) { runGroup(b, "GateRow") }
