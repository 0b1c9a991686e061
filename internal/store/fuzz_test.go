package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord hammers the binary decoder with arbitrary bytes: it
// must never panic and never allocate absurd buffers, only return
// records or errors.
func FuzzDecodeRecord(f *testing.F) {
	// Seed with a valid record and a few mutations.
	rec := &Record{
		PumpID:       3,
		ServiceDays:  12.5,
		SampleRateHz: 4000,
		ScaleG:       0.003,
		Raw:          [3][]int16{{1, -2, 3}, {4, 5, 6}, {-7, 8, 9}},
	}
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, rec); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRecord(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode to an equivalent record.
		var out bytes.Buffer
		if err := EncodeRecord(&out, got); err != nil {
			t.Fatalf("re-encode of decoded record failed: %v", err)
		}
		again, err := DecodeRecord(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !recordsEqual(got, again) && got.ServiceDays == got.ServiceDays {
			t.Fatal("decode/encode/decode not idempotent")
		}
	})
}
