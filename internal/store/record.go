// Package store is the measurement database of the analysis system
// (the "sensor measurement database" and "factory database" boxes in
// the paper's Fig. 1/7): an embedded, concurrency-safe time-series
// store for raw vibration measurements, a label store for the human
// expert annotations, and the analysis-period metadata that scopes
// every query. A record has two encodings on disk: the CRC-framed
// record stream (wal.go) that log segments, the checkpoint snapshot and
// the corpus file all are, and the compressed cold partition
// (partition.go). Labels persist as JSON.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Record is one stored vibration measurement: the quantized 3-axis
// readings plus the metadata needed to interpret them.
type Record struct {
	// PumpID identifies the monitored equipment (one sensor per
	// equipment, so it also identifies the sensor).
	PumpID int
	// ServiceDays is the sensor service time of the capture, in days
	// since the sensor was attached.
	ServiceDays float64
	// SampleRateHz is the sampling rate of the capture.
	SampleRateHz float64
	// ScaleG converts raw counts to g.
	ScaleG float64
	// Raw holds the quantized readings for the x, y, z axes.
	Raw [3][]int16
}

// AxisG converts one axis to acceleration in g.
func (r *Record) AxisG(axis int) []float64 {
	out := make([]float64, len(r.Raw[axis]))
	for i, v := range r.Raw[axis] {
		out[i] = float64(v) * r.ScaleG
	}
	return out
}

// Samples returns K, the per-axis sample count.
func (r *Record) Samples() int { return len(r.Raw[0]) }

// Binary codec constants.
const (
	recordMagic   = uint32(0x56504d52) // "VPMR"
	recordVersion = uint16(1)
	// recordHeaderLen is the fixed part of an encoded record; 6 bytes
	// per sample follow it.
	recordHeaderLen = 30
)

// Codec errors.
var (
	ErrBadMagic   = errors.New("store: bad record magic")
	ErrBadVersion = errors.New("store: unsupported record version")
)

// MaxSamplesPerAxis bounds the per-axis sample count a record may
// carry. The codec enforces it on both encode and decode: DecodeRecord
// bounds allocations against corrupt input, and EncodeRecord mirrors
// the check so a record too large to recover can never be written (and
// acknowledged) in the first place.
const MaxSamplesPerAxis = 1 << 20

// ErrRecordTooLarge marks a record that exceeds the codec size bounds.
// It is a permanent per-record rejection — the store/WAL underneath is
// healthy — so ingestion layers map it to "bad request", not "retry".
var ErrRecordTooLarge = errors.New("store: record too large")

// EncodeRecord writes r in the binary record format. A *bytes.Buffer
// (what the WAL frame and the snapshot encode into) takes the record in
// place, in one Write; another writer gets it from a scratch buffer.
// A record whose axes disagree in length is refused before any byte is
// written.
func EncodeRecord(w io.Writer, r *Record) error {
	k := len(r.Raw[0])
	if k > MaxSamplesPerAxis {
		return fmt.Errorf("%w: %d samples per axis (max %d)", ErrRecordTooLarge, k, MaxSamplesPerAxis)
	}
	for axis := 1; axis < 3; axis++ {
		if len(r.Raw[axis]) != k {
			return fmt.Errorf("store: axis %d has %d samples, want %d", axis, len(r.Raw[axis]), k)
		}
	}
	bb, inPlace := w.(*bytes.Buffer)
	if !inPlace {
		bb = new(bytes.Buffer)
	}
	bb.Grow(recordHeaderLen + 6*k)
	b := bb.AvailableBuffer()[:recordHeaderLen+6*k]
	binary.LittleEndian.PutUint32(b[0:], recordMagic)
	binary.LittleEndian.PutUint16(b[4:], recordVersion)
	binary.LittleEndian.PutUint32(b[6:], uint32(r.PumpID))
	binary.LittleEndian.PutUint64(b[10:], math.Float64bits(r.ServiceDays))
	binary.LittleEndian.PutUint32(b[18:], math.Float32bits(float32(r.SampleRateHz)))
	binary.LittleEndian.PutUint32(b[22:], math.Float32bits(float32(r.ScaleG)))
	binary.LittleEndian.PutUint32(b[26:], uint32(k))
	dst := b[recordHeaderLen:]
	for axis := 0; axis < 3; axis++ {
		for _, v := range r.Raw[axis] {
			if len(dst) < 2 {
				break // unreachable: b holds 6k bytes past the header
			}
			dst[0], dst[1] = byte(v), byte(uint16(v)>>8)
			dst = dst[2:]
		}
	}
	if inPlace {
		bb.Write(b)
		return nil
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("store: write record: %w", err)
	}
	return nil
}

// DecodeRecord decodes the record at the front of b, a payload in the
// binary record format; bytes behind the record are ignored.
func DecodeRecord(b []byte) (*Record, error) {
	if len(b) < recordHeaderLen {
		return nil, fmt.Errorf("store: record header: %w", io.ErrUnexpectedEOF)
	}
	if binary.LittleEndian.Uint32(b[0:]) != recordMagic {
		return nil, ErrBadMagic
	}
	if binary.LittleEndian.Uint16(b[4:]) != recordVersion {
		return nil, ErrBadVersion
	}
	rec := &Record{
		PumpID:       int(int32(binary.LittleEndian.Uint32(b[6:]))),
		ServiceDays:  math.Float64frombits(binary.LittleEndian.Uint64(b[10:])),
		SampleRateHz: float64(math.Float32frombits(binary.LittleEndian.Uint32(b[18:]))),
		ScaleG:       float64(math.Float32frombits(binary.LittleEndian.Uint32(b[22:]))),
	}
	k := int(binary.LittleEndian.Uint32(b[26:]))
	if k < 0 || k > MaxSamplesPerAxis {
		return nil, fmt.Errorf("%w: implausible sample count %d", ErrRecordTooLarge, k)
	}
	b = b[recordHeaderLen:]
	if len(b) < 6*k {
		return nil, fmt.Errorf("store: record samples: %w", io.ErrUnexpectedEOF)
	}
	// One allocation for all three axes, each capped at its own end so
	// an append to one reallocates instead of writing into the next.
	all := make([]int16, 3*k)
	for i := range all {
		if len(b) < 2 {
			break // unreachable: b holds 6k bytes
		}
		all[i] = int16(uint16(b[0]) | uint16(b[1])<<8)
		b = b[2:]
	}
	rec.Raw = [3][]int16{all[:k:k], all[k : 2*k : 2*k], all[2*k:]}
	return rec, nil
}
