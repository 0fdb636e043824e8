// Package wire is the one frame format every network hop speaks: the
// session protocol between clients, the router and serve nodes
// (internal/serve), and the trigger/recording exchange between a VA and
// its wearables (internal/syncnet). Frames are length-prefixed binary
// with a versioned fixed header, varint lengths, and a shared frame-type
// table. A frame is:
//
//	byte 0   protocol version (Version)
//	byte 1   frame type (FrameRequest … FrameWearableError)
//	uvarint  stream id — many concurrent sessions multiplex one TCP
//	         connection, each tagged with the stream that owns it
//	uvarint  payload length (0 … MaxFramePayload)
//	payload  frame-type-specific binary payload
//
// Decoding is hardened for fuzzing: unknown versions, unknown frame
// types, oversized or overlong-varint lengths, and truncated frames all
// surface as typed errors, and no length is trusted before it is checked
// against MaxFramePayload (a hostile 2^60 length never allocates).
// Multi-byte integers inside payloads are little-endian; float64s travel
// as IEEE-754 bits. The payload codecs live with the packages that own
// each hop and build on the helpers here.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"unsafe"
)

// Version is the protocol version stamped on every frame. A decoder
// rejects frames from any other version with ErrUnknownVersion.
const Version = 1

// Frame types. Explicit constants, not iota: both ends may be rebuilt
// independently, so the numbering is part of the protocol.
const (
	// FrameRequest carries one session submission.
	FrameRequest = byte(1)
	// FrameVerdict carries one successful verdict.
	FrameVerdict = byte(2)
	// FrameError carries one typed session failure.
	FrameError = byte(3)
	// FramePing and FramePong are the health-probe pair; their payloads
	// are empty. Servers answer a ping by echoing the stream id back on a
	// pong.
	FramePing = byte(4)
	FramePong = byte(5)
	// FrameChunk carries one streamed VA audio chunk. The first chunk of
	// a stream sets the header flag and carries the session fields of a
	// request; the last sets the final flag. Chunks interleave freely
	// with other streams' frames on the shared connection.
	FrameChunk = byte(6)
	// FrameVerdictEarly carries a verdict reached before the stream ended
	// (verdict plus the consumed-sample count). The sender stops reading
	// the stream's remaining chunks after it.
	FrameVerdictEarly = byte(7)
	// FrameTrigger asks a wearable to record the command the VA just
	// heard (Section VI-A); its payload is empty. The reply carries the
	// trigger's stream id.
	FrameTrigger = byte(8)
	// FrameRecording carries a wearable's recording back to the VA.
	FrameRecording = byte(9)
	// FrameWearableError reports a wearable-side failure to record.
	FrameWearableError = byte(10)
)

// MaxFramePayload caps a frame payload. The largest legitimate frame is a
// request or recording carrying audio (8 bytes per sample: a minute of
// 16 kHz audio is ~7.7 MiB), so 64 MiB leaves generous headroom while
// keeping a hostile length from allocating unbounded memory.
const MaxFramePayload = 64 << 20

// Typed frame-decode errors. They are the fuzzing contract: any byte
// stream either decodes or fails with one of these (or io.EOF /
// io.ErrUnexpectedEOF for clean and mid-frame truncation) — never a panic
// and never an oversized allocation.
var (
	// ErrUnknownVersion is returned for a frame whose version byte is not
	// Version.
	ErrUnknownVersion = errors.New("wire: unknown protocol version")
	// ErrUnknownFrameType is returned for a frame whose type byte is not
	// one of the Frame* constants.
	ErrUnknownFrameType = errors.New("wire: unknown frame type")
	// ErrFrameTooLarge is returned when a frame declares a payload longer
	// than MaxFramePayload. Nothing is allocated for such a frame.
	ErrFrameTooLarge = errors.New("wire: frame payload exceeds limit")
	// ErrMalformedFrame is returned for varints that overflow or payloads
	// whose internal structure is inconsistent with their length.
	ErrMalformedFrame = errors.New("wire: malformed frame")
)

// Frame is one decoded wire frame.
type Frame struct {
	// Type is one of the Frame* constants.
	Type byte
	// Stream tags the session this frame belongs to on its connection.
	Stream uint64
	// Payload is the frame-type-specific body (nil when empty).
	Payload []byte
}

// knownType reports whether typ is in the frame-type table.
func knownType(typ byte) bool { return typ >= FrameRequest && typ <= FrameWearableError }

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. Encoding never fails for payloads within MaxFramePayload.
func AppendFrame(dst []byte, f Frame) []byte {
	return append(appendHeader(dst, f), f.Payload...)
}

// appendHeader appends everything of the encoded frame but its payload.
func appendHeader(dst []byte, f Frame) []byte {
	dst = append(dst, Version, f.Type)
	dst = binary.AppendUvarint(dst, f.Stream)
	return binary.AppendUvarint(dst, uint64(len(f.Payload)))
}

// WriteFrame encodes the frame to w without copying its payload: on a
// network connection the header and the payload leave in one vectored
// write.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return ErrFrameTooLarge
	}
	bufs := net.Buffers{appendHeader(make([]byte, 0, 2+2*binary.MaxVarintLen64), f)}
	if len(f.Payload) > 0 {
		bufs = append(bufs, f.Payload)
	}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame decodes one frame from br. A clean EOF at a frame boundary
// returns io.EOF; truncation inside a frame returns io.ErrUnexpectedEOF.
// The payload length is validated against MaxFramePayload before any
// allocation.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	version, err := br.ReadByte()
	if err != nil {
		return Frame{}, err // io.EOF: clean end of stream
	}
	if version != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrUnknownVersion, version)
	}
	typ, err := br.ReadByte()
	if err != nil {
		return Frame{}, truncated(err)
	}
	if !knownType(typ) {
		return Frame{}, fmt.Errorf("%w: %d", ErrUnknownFrameType, typ)
	}
	stream, err := readUvarint(br)
	if err != nil {
		return Frame{}, err
	}
	length, err := readUvarint(br)
	if err != nil {
		return Frame{}, err
	}
	if length > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	f := Frame{Type: typ, Stream: stream}
	if length > 0 {
		f.Payload = make([]byte, length)
		if _, err := io.ReadFull(br, f.Payload); err != nil {
			return Frame{}, truncated(err)
		}
	}
	return f, nil
}

// DecodeFrame decodes one frame from the head of data and returns the
// number of bytes consumed. It is the fuzzing entry point: every failure
// is one of the typed errors above (truncation maps to
// io.ErrUnexpectedEOF), and a declared length is checked against both
// MaxFramePayload and the bytes actually present before allocating.
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) == 0 {
		return Frame{}, 0, io.EOF
	}
	if data[0] != Version {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrUnknownVersion, data[0])
	}
	if len(data) < 2 {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	typ := data[1]
	if !knownType(typ) {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrUnknownFrameType, typ)
	}
	off := 2
	stream, n, err := UvarintAt(data, off)
	if err != nil {
		return Frame{}, 0, err
	}
	off += n
	length, n, err := UvarintAt(data, off)
	if err != nil {
		return Frame{}, 0, err
	}
	off += n
	if length > MaxFramePayload {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	if uint64(len(data)-off) < length {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	f := Frame{Type: typ, Stream: stream}
	if length > 0 {
		f.Payload = make([]byte, length)
		copy(f.Payload, data[off:off+int(length)])
	}
	return f, off + int(length), nil
}

// readUvarint reads a varint, mapping overflow to ErrMalformedFrame and
// truncation to io.ErrUnexpectedEOF.
func readUvarint(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	return v, nil
}

// UvarintAt decodes a varint at data[off:] and returns it with its
// encoded size, mapping overflow to ErrMalformedFrame and truncation to
// io.ErrUnexpectedEOF.
func UvarintAt(data []byte, off int) (uint64, int, error) {
	if off >= len(data) {
		return 0, 0, io.ErrUnexpectedEOF
	}
	v, n := binary.Uvarint(data[off:])
	if n > 0 {
		return v, n, nil
	}
	if n == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	return 0, 0, fmt.Errorf("%w: uvarint overflow", ErrMalformedFrame)
}

// truncated maps an io error inside a frame to io.ErrUnexpectedEOF.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendString appends a uvarint-length-prefixed string to dst.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// TakeString decodes a length-prefixed string from the head of p and
// returns the remainder. The length is checked against the bytes present
// before any copy.
func TakeString(p []byte) (string, []byte, error) {
	n, sz, err := UvarintAt(p, 0)
	if err != nil {
		return "", nil, fmt.Errorf("%w: string length", ErrMalformedFrame)
	}
	p = p[sz:]
	if uint64(len(p)) < n {
		return "", nil, fmt.Errorf("%w: string of %d bytes in %d remaining", ErrMalformedFrame, n, len(p))
	}
	return string(p[:n]), p[n:], nil
}

// AppendSamples appends a sample block to dst: a uvarint count, then each
// sample's float64 bits, little-endian. dst grows at most once.
func AppendSamples(dst []byte, samples []float64) []byte {
	if need := binary.MaxVarintLen64 + 8*len(samples); cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	if littleEndian {
		return append(dst, sampleBytes(samples)...)
	}
	for _, s := range samples {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s))
	}
	return dst
}

// littleEndian is set on hosts whose float64 memory is a sample block's
// bytes: there a block is copied whole.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sampleBytes views samples as the 8·len(samples) bytes of their memory.
func sampleBytes(samples []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(samples))), 8*len(samples))
}

// TakeSamples decodes a sample block from the head of p and returns the
// remainder. The count is checked against the bytes present before the
// sample slice is allocated; an empty block decodes to nil.
func TakeSamples(p []byte) ([]float64, []byte, error) {
	count, n, err := UvarintAt(p, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: sample count", ErrMalformedFrame)
	}
	p = p[n:]
	if count > uint64(len(p))/8 {
		return nil, nil, fmt.Errorf("%w: %d samples in %d payload bytes", ErrMalformedFrame, count, len(p))
	}
	if count == 0 {
		return nil, p, nil
	}
	samples := make([]float64, count)
	if littleEndian {
		copy(sampleBytes(samples), p)
	} else {
		for i := range samples {
			samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
	}
	return samples, p[count*8:], nil
}
