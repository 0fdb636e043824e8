//go:build !amd64

package dsp

// Off amd64 the butterfly stages run in pure Go.
var kernels = []kernel{{"generic", butterfliesGeneric}}
