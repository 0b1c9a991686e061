package stream

import (
	"encoding/binary"
	"math"
	"testing"

	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// fuzzRecords decodes an adversarial byte stream into a bounded batch
// of records: pump ids collide on purpose, service days / rates /
// scales are raw float bits (NaN and ±Inf included), and the three axes
// may be empty, short, or unequal. The decoder is total — any input
// yields some (possibly empty) batch.
func fuzzRecords(data []byte) []*store.Record {
	const maxRecords = 12
	var out []*store.Record
	off := 0
	take := func(n int) []byte {
		if off >= len(data) {
			return nil
		}
		hi := off + n
		if hi > len(data) {
			hi = len(data)
		}
		b := make([]byte, n)
		copy(b, data[off:hi])
		off = hi
		return b
	}
	f64 := func() float64 {
		b := take(8)
		if b == nil {
			return 0
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	for off < len(data) && len(out) < maxRecords {
		hdr := take(1)
		if hdr == nil {
			break
		}
		rec := &store.Record{
			PumpID:       int(hdr[0] % 5), // collisions on purpose
			ServiceDays:  f64(),
			SampleRateHz: f64(),
			ScaleG:       f64(),
		}
		for axis := 0; axis < 3; axis++ {
			nb := take(1)
			if nb == nil {
				break
			}
			n := int(nb[0] % 65) // 0..64 samples, axes may disagree
			raw := make([]int16, n)
			for i := range raw {
				b := take(2)
				if b == nil {
					break
				}
				raw[i] = int16(binary.LittleEndian.Uint16(b))
			}
			rec.Raw[axis] = raw
		}
		out = append(out, rec)
	}
	return out
}

// FuzzLiveIngest feeds adversarial records — NaN/Inf metadata, odd and
// unequal axis lengths, duplicate keys, out-of-order timestamps — into
// the live state and asserts (1) no panic anywhere on the fold or
// assembly path and (2) batch equivalence on the records the store
// accepted: every cached scalar matches a direct recomputation bit for
// bit.
func FuzzLiveIngest(f *testing.F) {
	// Seeds: the failure modes named by the harness.
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	inf := make([]byte, 8)
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(1)))
	day := func(v float64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		return b
	}
	one := func(hdr byte, sd, rate, scale []byte, axes byte) []byte {
		rec := []byte{hdr}
		rec = append(rec, sd...)
		rec = append(rec, rate...)
		rec = append(rec, scale...)
		for axis := 0; axis < 3; axis++ {
			rec = append(rec, axes)
			for i := 0; i < int(axes%65); i++ {
				rec = append(rec, byte(i), byte(i>>1))
			}
		}
		return rec
	}
	f.Add([]byte{})
	f.Add(one(1, nan, day(4000), day(0.001), 16))           // NaN service day
	f.Add(one(2, day(5), inf, day(0.001), 8))               // Inf sample rate
	f.Add(one(3, day(5), day(4000), nan, 3))                // NaN scale, odd length
	f.Add(append(one(4, day(7), day(4000), day(0.001), 16), // duplicate key:
		one(4, day(7), day(4000), day(0.001), 16)...)) // same pump+day twice
	f.Add(append(one(0, day(9), day(4000), day(0.001), 8), // out-of-order arrival
		one(0, day(2), day(4000), day(0.001), 8)...))
	f.Add(one(1, day(1), day(4000), day(0.001), 0)) // empty axes

	f.Fuzz(func(t *testing.T, data []byte) {
		recs := fuzzRecords(data)
		st := store.NewMeasurements()
		ls := NewLiveState(Config{})
		for _, rec := range recs {
			// Fold unconditionally first: the live path must survive a
			// record even if the store then rejects it as a duplicate.
			ls.Fold(rec)
			st.AddUnique(rec)
		}
		for _, id := range st.Pumps() {
			survived := st.All(id)
			feats := ls.ensure(id, survived, 0)
			if len(feats) != len(survived) {
				t.Fatalf("pump %d: %d feats for %d records", id, len(feats), len(survived))
			}
			for i, rec := range survived {
				wantOff := transform.Offsets(rec)
				for d := 0; d < 3; d++ {
					if !eqF64(feats[i].Offsets[d], wantOff[d]) {
						t.Fatalf("pump %d record %d: offset axis %d diverged", id, i, d)
					}
				}
				if !eqF64(feats[i].RMS, transform.RMS(rec)) {
					t.Fatalf("pump %d record %d: RMS %v != %v", id, i, feats[i].RMS, transform.RMS(rec))
				}
				if !eqF64(feats[i].VRMS, transform.VelocityRMS(rec, 10, 1000)) {
					t.Fatalf("pump %d record %d: VRMS %v != %v", id, i, feats[i].VRMS, transform.VelocityRMS(rec, 10, 1000))
				}
			}
			// The mean-shift input assembly must also be total.
			_ = ls.OffsetRows(id, survived)
		}
	})
}
