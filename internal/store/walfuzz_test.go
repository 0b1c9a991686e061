package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
)

// walFrameBytes encodes rec as one WAL frame, the way Append lays it
// out on disk.
func walFrameBytes(tb testing.TB, rec *Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	frame, err := frameRecord(&buf, rec)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzWALDecode hammers the WAL frame decoder with arbitrary byte
// streams — truncations, bit flips, garbage — and holds it to two
// invariants: it never panics, and it never returns a payload whose
// CRC does not verify (a frame either authenticates or truncates the
// stream, nothing in between). The same bytes then go to Load as the
// record stream of a store file — the parser vibed -data hands outside
// bytes to — which must accept exactly the streams that are intact to
// their end and otherwise leave its receiver as it was.
func FuzzWALDecode(f *testing.F) {
	rec := &Record{
		PumpID:       7,
		ServiceDays:  3.25,
		SampleRateHz: 4000,
		ScaleG:       0.003,
		Raw:          [3][]int16{{100, -200, 300}, {1, 2, 3}, {-4, -5, -6}},
	}
	valid := walFrameBytes(f, rec)

	f.Add(valid)                                        // one intact frame
	f.Add(append(append([]byte{}, valid...), valid...)) // two frames back to back
	f.Add(valid[:len(valid)-3])                         // torn payload
	f.Add(valid[:walHeaderLen-2])                       // torn header
	f.Add([]byte{})                                     // empty stream
	bitflip := append([]byte(nil), valid...)
	bitflip[walHeaderLen+4] ^= 0x01 // payload corruption: CRC must catch it
	f.Add(bitflip)
	badmagic := append([]byte(nil), valid...)
	badmagic[0] ^= 0xFF
	f.Add(badmagic)
	hugelen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugelen[4:], 1<<31) // implausible length
	f.Add(hugelen)

	f.Fuzz(func(t *testing.T, data []byte) {
		// records counts the frames that authenticate and decode; clean
		// reports that nothing but such frames precedes the end of data.
		records, clean := 0, false
		r := bytes.NewReader(data)
		var buf []byte
		for {
			frameStart := len(data) - r.Len()
			payload, err := readWALFrame(r, buf)
			if err != nil {
				clean = err == io.EOF // anything else: replay would truncate here
				break
			}
			buf = payload
			// Whatever the fuzzer fed us, a returned payload must stay
			// within the allocation bound and authenticate against the
			// CRC stored in its own header bytes.
			if len(payload) > maxWALPayload {
				t.Fatalf("decoder returned %d-byte payload past the cap", len(payload))
			}
			want := binary.LittleEndian.Uint32(data[frameStart+8 : frameStart+12])
			if got := crc32.Checksum(payload, crcTable); got != want {
				t.Fatalf("decoder returned a payload whose CRC %08x does not match the frame's %08x", got, want)
			}
			if _, derr := DecodeRecord(payload); derr != nil {
				// Valid frame, non-record payload: replay truncates, but
				// decoding must fail cleanly, which it just did.
				break
			}
			records++
		}

		file := append([]byte(nil), storeHeader...)
		file = binary.LittleEndian.AppendUint64(file, uint64(records))
		file = append(file, data...)
		for _, workers := range []int{1, 3} {
			m := NewMeasurements()
			m.Add(rec)
			gen := m.GenerationTotal()
			err := m.load(bytes.NewReader(file), workers)
			if (err == nil) != clean {
				t.Fatalf("workers=%d: Load err = %v for a stream of %d records, intact to its end: %v", workers, err, records, clean)
			}
			if err != nil && (m.Len() != 1 || m.GenerationTotal() != gen) {
				t.Fatalf("workers=%d: a refused file changed the receiver: Len %d, generation %d → %d", workers, m.Len(), gen, m.GenerationTotal())
			}
		}
	})
}
