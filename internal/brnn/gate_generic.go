//go:build !amd64

package brnn

// Off amd64 the gate row runs on the scalar loop.
var gateKernels = []gateKernel{{"generic", gatesGeneric}}
