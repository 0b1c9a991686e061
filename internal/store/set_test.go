package store_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"vibepm/internal/chaos"
	"vibepm/internal/store"
)

// TestEveryWritePathHoldsTheSameSet: a store is a set keyed by (pump,
// service time), so for a stream that repeats keys (out of order, with
// different samples under the repeated key) the store built by Add, its
// Save → Load copy, the Load of a store file holding the stream as it
// came, a durable store's WAL replay after a crash, and a tiered
// store's hot ∪ cold after a checkpoint and reopen all hold the first
// record of every key and nothing else, byte for byte.
func TestEveryWritePathHoldsTheSameSet(t *testing.T) {
	type key struct {
		pump int
		day  float64
	}
	rng := rand.New(rand.NewSource(21))
	var stream, first []*store.Record
	seen := map[key]bool{}
	for i := 0; i < 240; i++ { // 144 keys: days 0 .. 11.75 on three pumps
		rec := smallRecord(rng, 1+rng.Intn(3), float64(rng.Intn(48))*0.25)
		stream = append(stream, rec)
		if k := (key{rec.PumpID, rec.ServiceDays}); !seen[k] {
			seen[k] = true
			first = append(first, rec)
		}
	}
	if len(first) == len(stream) {
		t.Fatal("the stream repeats no key")
	}
	check := func(path string, got *store.Measurements) {
		t.Helper()
		if err := chaos.CheckRecovered(got, first, first); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}

	added := store.NewMeasurements()
	for _, rec := range stream {
		added.Add(rec)
	}
	check("Add", added)

	var snap bytes.Buffer
	if err := added.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := store.NewMeasurements()
	if err := loaded.Load(&snap); err != nil {
		t.Fatal(err)
	}
	check("Save → Load", loaded)

	// The stream itself as a store file, framed by hand as the format
	// is documented: header, count, then magic + length + CRC32C +
	// EncodeRecord payload per record.
	file := binary.LittleEndian.AppendUint64([]byte("VPMSTORE2\n"), uint64(len(stream)))
	for _, rec := range stream {
		var payload bytes.Buffer
		if err := store.EncodeRecord(&payload, rec); err != nil {
			t.Fatal(err)
		}
		file = binary.LittleEndian.AppendUint32(file, 0x56574C46) // "VWLF"
		file = binary.LittleEndian.AppendUint32(file, uint32(payload.Len()))
		file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(payload.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
		file = append(file, payload.Bytes()...)
	}
	repeated := store.NewMeasurements()
	if err := repeated.Load(bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	check("Load of a file that repeats keys", repeated)

	// writeAndCrash logs the stream through a durable store, optionally
	// checkpoints, and abandons it; the reopened store is what recovery
	// made of the files.
	writeAndCrash := func(opts store.DurableOptions, checkpoint bool) *store.Durable {
		t.Helper()
		dir := t.TempDir()
		d, _, err := store.OpenDurable(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		stored := 0
		for _, rec := range stream {
			ok, err := d.AddUnique(rec)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				stored++
			}
		}
		if stored != len(first) {
			t.Fatalf("durable store took %d records, want one per key = %d", stored, len(first))
		}
		if checkpoint {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		d.Abort()
		re, _, err := store.OpenDurable(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(re.Abort)
		return re
	}
	opts := store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncNever}}
	check("WAL replay", writeAndCrash(opts, false).Store())

	opts.Tiered = &store.TieredOptions{HotWindowDays: 4, PartitionDays: 2}
	tiered := writeAndCrash(opts, true)
	if tiered.Cold().UpTo() == 0 {
		t.Fatal("the checkpoint compacted nothing: the tiered path was not exercised")
	}
	union := store.NewMeasurements()
	for _, id := range tiered.Store().Pumps() {
		for _, rec := range tiered.Store().All(id) {
			union.Add(rec)
		}
	}
	for _, id := range tiered.Cold().Pumps() {
		recs, err := tiered.Cold().Records(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			union.Add(rec)
		}
	}
	check("tiered checkpoint + reopen", union)
}
