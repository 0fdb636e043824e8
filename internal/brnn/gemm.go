package brnn

// gemmPackedLanes is the output-row group width of the packed kernel: 16
// independent accumulators (eight two-lane XMM registers on amd64) per
// pass over the shared input row.
const gemmPackedLanes = 16

// gemmKernel runs the first blocks of one packed input row and returns how
// many it ran; apply runs the rest on gemmPacked16. gemmKernels lists the
// kernels this CPU can run, preferred first, all with gemmNT's bits;
// gemmBlocks is the preferred one, which only tests switch.
type gemmKernel struct {
	name string
	run  func(out, x, blk []float64, nblk int) int
}

var gemmBlocks = gemmKernels[0].run

// packedNT is a weight matrix prepared for the batched x·Wᵀ kernels: the
// rows of W are regrouped into 16-lane interleaved blocks so the SIMD
// kernel can load one value of 16 consecutive output rows with a single
// vector load. Lane l of block b accumulates output row b*16+l on its
// own — each output element still sums over k in increasing order through
// a single accumulator, which keeps the packed path bit-identical to
// gemmNT and to the per-frame reference kernels.
//
// The packing is a snapshot of the weights: inference sessions pack once,
// and a training step repacks into the same buffers (repack) after every
// update. The up-to-15 tail rows that do not fill a block are served
// straight from the original row-major weights by the scalar kernel.
type packedNT struct {
	k, r int
	w    []float64 // original row-major rows, shared read-only with the caller
	blk  []float64 // interleaved 16-lane blocks; empty off amd64 or when r < 16
}

// packNT prepares W (r rows of k values, row-major) for apply. On
// architectures without the packed kernel it records the shape only and
// apply falls back to the pure-Go blocked kernel.
func packNT(w []float64, k, r int) packedNT {
	var p packedNT
	p.repack(w, k, r)
	return p
}

// repack is packNT into p's existing block buffer, which grows only when
// the new shape needs more room.
func (p *packedNT) repack(w []float64, k, r int) {
	p.k, p.r, p.w = k, r, w
	nblk := r / gemmPackedLanes
	if !gemmPackedEnabled {
		nblk = 0
	}
	p.blk = growF(p.blk, nblk*gemmPackedLanes*k)
	for b := 0; b < nblk; b++ {
		dst := p.blk[b*gemmPackedLanes*k:]
		for c := 0; c < k; c++ {
			for l := 0; l < gemmPackedLanes; l++ {
				dst[c*gemmPackedLanes+l] = w[(b*gemmPackedLanes+l)*k+c]
			}
		}
	}
}

// apply computes out = X·Wᵀ for n packed input rows: X is n rows of k
// values, out is n rows of r values, both row-major. Bit-identical to
// gemmNT(out, x, w, n, k, r).
func (p *packedNT) apply(out, x []float64, n int) {
	k, r := p.k, p.r
	if len(p.blk) == 0 {
		gemmNT(out, x, p.w, n, k, r)
		return
	}
	nblk := r / gemmPackedLanes
	full := nblk * gemmPackedLanes
	for i := 0; i < n; i++ {
		xi := x[i*k : i*k+k]
		oi := out[i*r : i*r+r]
		for b := gemmBlocks(oi, xi, p.blk, nblk); b < nblk; b++ {
			gemmPacked16(oi[b*gemmPackedLanes:(b+1)*gemmPackedLanes],
				xi, p.blk[b*gemmPackedLanes*k:(b+1)*gemmPackedLanes*k])
		}
		if full < r {
			gemmNT(oi[full:], xi, p.w[full*k:], 1, k, r-full)
		}
	}
}
