package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
)

// A cold partition is one immutable, compressed, time-bounded slab of
// measurement history — the tier retired WAL segments compact into
// instead of being deleted. File layout (little-endian):
//
//	magic "VPMCOLD1\n"
//	u16 version (1)
//	f64 fromDays, f64 toDays        // covered span [from, to)
//	u32 metricCount, metric names   // u8 len + bytes each
//	u32 pumpCount
//	pumpCount × pump block:
//	  i32 pumpID, u32 recordCount
//	  stream times                  // CompressTimesInto(ServiceDays)
//	  stream rates                  // CompressFloatsInto(SampleRateHz)
//	  stream scales                 // CompressFloatsInto(ScaleG)
//	  stream counts                 // uvarint per-record sample count
//	  metricCount × stream values   // CompressFloatsInto(metric series)
//	  3 × stream axis               // CompressInt16sInto(concatenated)
//	u32 CRC32C (Castagnoli) of everything before it
//
// where stream := u32 byteLen + bytes. The scalar streams (times,
// metric values) are the partition's persistent downsample pyramid
// base: OpenPartition keeps them decompressed in memory, so cold trend
// queries never touch the waveform streams, which stay on disk and are
// only decompressed by Records.
const (
	partitionVersion = 1
	partitionSuffix  = ".cold"
)

var partitionHeader = []byte("VPMCOLD1\n")

// ErrBadPartition marks a partition file that fails structural or
// checksum validation.
var ErrBadPartition = errors.New("store: bad partition file")

var partitionCRC = crc32.MakeTable(crc32.Castagnoli)

// PartitionData is the builder-side content of one partition.
type PartitionData struct {
	FromDays float64
	ToDays   float64
	// Metrics names the scalar series stored per pump, in stream order.
	Metrics []string
	// Pumps maps pump id to that pump's records and metric values.
	Pumps map[int]*PartitionPump
}

// PartitionPump is one pump's slice of a partition under construction.
type PartitionPump struct {
	Records []*Record
	// MetricValues[i][j] is Metrics[i] evaluated on Records[j].
	MetricValues [][]float64
}

func appendStream(buf, stream []byte) []byte {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(stream)))
	buf = append(buf, lenBuf[:]...)
	return append(buf, stream...)
}

// encodePartition serializes data (without writing anything to disk).
func encodePartition(data *PartitionData) ([]byte, error) {
	buf := append([]byte(nil), partitionHeader...)
	var scratch [8]byte
	binary.LittleEndian.PutUint16(scratch[:2], partitionVersion)
	buf = append(buf, scratch[:2]...)
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(data.FromDays))
	buf = append(buf, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(data.ToDays))
	buf = append(buf, scratch[:]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(data.Metrics)))
	buf = append(buf, scratch[:4]...)
	for _, name := range data.Metrics {
		if len(name) > 255 {
			return nil, fmt.Errorf("%w: metric name too long", ErrBadPartition)
		}
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
	}
	ids := make([]int, 0, len(data.Pumps))
	for id := range data.Pumps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(ids)))
	buf = append(buf, scratch[:4]...)

	var times, rates, scales, vals []float64
	var samples []int16
	var stream []byte
	for _, id := range ids {
		pp := data.Pumps[id]
		recs := pp.Records
		binary.LittleEndian.PutUint32(scratch[:4], uint32(int32(id)))
		buf = append(buf, scratch[:4]...)
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(recs)))
		buf = append(buf, scratch[:4]...)

		times, rates, scales = times[:0], rates[:0], scales[:0]
		for _, rec := range recs {
			times = append(times, rec.ServiceDays)
			rates = append(rates, rec.SampleRateHz)
			scales = append(scales, rec.ScaleG)
		}
		stream = CompressTimesInto(stream[:0], times)
		buf = appendStream(buf, stream)
		stream = CompressFloatsInto(stream[:0], rates)
		buf = appendStream(buf, stream)
		stream = CompressFloatsInto(stream[:0], scales)
		buf = appendStream(buf, stream)
		stream = stream[:0]
		for _, rec := range recs {
			stream = binary.AppendUvarint(stream, uint64(rec.Samples()))
		}
		buf = appendStream(buf, stream)
		if len(pp.MetricValues) != len(data.Metrics) {
			return nil, fmt.Errorf("%w: pump %d has %d metric series, want %d", ErrBadPartition, id, len(pp.MetricValues), len(data.Metrics))
		}
		for mi := range data.Metrics {
			vals = append(vals[:0], pp.MetricValues[mi]...)
			if len(vals) != len(recs) {
				return nil, fmt.Errorf("%w: pump %d metric %q has %d values, want %d", ErrBadPartition, id, data.Metrics[mi], len(vals), len(recs))
			}
			stream = CompressFloatsInto(stream[:0], vals)
			buf = appendStream(buf, stream)
		}
		for axis := 0; axis < 3; axis++ {
			samples = samples[:0]
			for _, rec := range recs {
				samples = append(samples, rec.Raw[axis]...)
			}
			stream = CompressInt16sInto(stream[:0], samples)
			buf = appendStream(buf, stream)
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc32.Checksum(buf, partitionCRC))
	buf = append(buf, scratch[:4]...)
	return buf, nil
}

// WritePartition encodes data and writes it to path atomically
// (writeFileAtomic); wrap, when non-nil, interposes on the temp file. A
// crash at any byte leaves either no file or a temp the cold store
// sweeps away at its next open.
func WritePartition(path string, data *PartitionData, wrap func(path string, f *os.File) SegmentFile) error {
	buf, err := encodePartition(data)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, wrap, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// partPump is the in-memory view of one pump inside an open partition:
// scalar series decompressed and resident, waveforms left on disk.
type partPump struct {
	times  []float64
	rates  []float64
	scales []float64
	counts []int
	// metrics[i] aligns with Partition.metrics[i].
	metrics [][]float64
	// axisOff/axisLen locate the three compressed axis streams in the
	// file (payload bytes, after each stream's length prefix).
	axisOff [3]int64
	axisLen [3]int
}

// Partition is one open (immutable) cold partition.
type Partition struct {
	path     string
	fromDays float64
	toDays   float64
	metrics  []string
	pumps    map[int]*partPump
	ids      []int // sorted pump ids
	records  int
	fileSize int64
	rawSize  int64 // EncodeRecord size of the content
}

type partParser struct {
	buf []byte
	off int
}

func (p *partParser) need(n int) ([]byte, error) {
	if p.off+n > len(p.buf) {
		return nil, fmt.Errorf("%w: truncated", ErrBadPartition)
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b, nil
}

func (p *partParser) u32() (uint32, error) {
	b, err := p.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (p *partParser) f64() (float64, error) {
	b, err := p.need(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// stream returns the payload of one length-prefixed stream along with
// its file offset.
func (p *partParser) stream() ([]byte, int64, error) {
	n, err := p.u32()
	if err != nil {
		return nil, 0, err
	}
	off := int64(p.off)
	b, err := p.need(int(n))
	return b, off, err
}

// OpenPartition reads, checksums, and parses one partition file. The
// whole file is read once: scalar streams stay resident, waveform
// streams are dropped and re-read lazily by Records.
func OpenPartition(path string) (*Partition, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < len(partitionHeader)+4 || string(buf[:len(partitionHeader)]) != string(partitionHeader) {
		return nil, fmt.Errorf("%w: missing header", ErrBadPartition)
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, partitionCRC) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadPartition)
	}
	p := &partParser{buf: body, off: len(partitionHeader)}
	verBytes, err := p.need(2)
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint16(verBytes); v != partitionVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadPartition, v)
	}
	part := &Partition{path: path, pumps: make(map[int]*partPump), fileSize: int64(len(buf))}
	if part.fromDays, err = p.f64(); err != nil {
		return nil, err
	}
	if part.toDays, err = p.f64(); err != nil {
		return nil, err
	}
	nMetrics, err := p.u32()
	if err != nil {
		return nil, err
	}
	if nMetrics > 64 {
		return nil, fmt.Errorf("%w: implausible metric count %d", ErrBadPartition, nMetrics)
	}
	for i := uint32(0); i < nMetrics; i++ {
		lb, err := p.need(1)
		if err != nil {
			return nil, err
		}
		nb, err := p.need(int(lb[0]))
		if err != nil {
			return nil, err
		}
		part.metrics = append(part.metrics, string(nb))
	}
	nPumps, err := p.u32()
	if err != nil {
		return nil, err
	}
	for pi := uint32(0); pi < nPumps; pi++ {
		idU, err := p.u32()
		if err != nil {
			return nil, err
		}
		id := int(int32(idU))
		nRecs, err := p.u32()
		if err != nil {
			return nil, err
		}
		if int(nRecs) > len(body) { // decompressed counts are bounded by input size
			return nil, fmt.Errorf("%w: implausible record count %d", ErrBadPartition, nRecs)
		}
		pp := &partPump{
			times:  make([]float64, nRecs),
			rates:  make([]float64, nRecs),
			scales: make([]float64, nRecs),
			counts: make([]int, nRecs),
		}
		ts, _, err := p.stream()
		if err != nil {
			return nil, err
		}
		if err := DecompressTimesInto(pp.times, ts); err != nil {
			return nil, fmt.Errorf("%w: times: %v", ErrBadPartition, err)
		}
		rs, _, err := p.stream()
		if err != nil {
			return nil, err
		}
		if err := DecompressFloatsInto(pp.rates, rs); err != nil {
			return nil, fmt.Errorf("%w: rates: %v", ErrBadPartition, err)
		}
		ss, _, err := p.stream()
		if err != nil {
			return nil, err
		}
		if err := DecompressFloatsInto(pp.scales, ss); err != nil {
			return nil, fmt.Errorf("%w: scales: %v", ErrBadPartition, err)
		}
		cs, _, err := p.stream()
		if err != nil {
			return nil, err
		}
		for i := range pp.counts {
			k, n := binary.Uvarint(cs)
			if n <= 0 || k > MaxSamplesPerAxis {
				return nil, fmt.Errorf("%w: sample counts", ErrBadPartition)
			}
			pp.counts[i] = int(k)
			cs = cs[n:]
			part.rawSize += int64(recordHeaderLen + 6*int(k))
		}
		pp.metrics = make([][]float64, len(part.metrics))
		for mi := range part.metrics {
			ms, _, err := p.stream()
			if err != nil {
				return nil, err
			}
			pp.metrics[mi] = make([]float64, nRecs)
			if err := DecompressFloatsInto(pp.metrics[mi], ms); err != nil {
				return nil, fmt.Errorf("%w: metric %q: %v", ErrBadPartition, part.metrics[mi], err)
			}
		}
		for axis := 0; axis < 3; axis++ {
			as, off, err := p.stream()
			if err != nil {
				return nil, err
			}
			pp.axisOff[axis] = off
			pp.axisLen[axis] = len(as)
		}
		part.pumps[id] = pp
		part.ids = append(part.ids, id)
		part.records += int(nRecs)
	}
	if p.off != len(body) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadPartition)
	}
	sort.Ints(part.ids)
	return part, nil
}

// FromDays and ToDays bound the partition's covered span [from, to).
func (p *Partition) FromDays() float64 { return p.fromDays }
func (p *Partition) ToDays() float64   { return p.toDays }

// Len returns the record count across all pumps.
func (p *Partition) Len() int { return p.records }

// Pumps lists the pump ids present, ascending.
func (p *Partition) Pumps() []int { return p.ids }

// CompressedBytes is the partition's on-disk size; RawBytes is what the
// same records cost in the raw record encoding (30-byte header plus
// 6 bytes per 3-axis sample group).
func (p *Partition) CompressedBytes() int64 { return p.fileSize }
func (p *Partition) RawBytes() int64        { return p.rawSize }

// Contains reports whether the partition holds a record of pumpID at
// exactly serviceDays.
func (p *Partition) Contains(pumpID int, serviceDays float64) bool {
	pp := p.pumps[pumpID]
	if pp == nil {
		return false
	}
	i := sort.SearchFloat64s(pp.times, serviceDays)
	return i < len(pp.times) && pp.times[i] == serviceDays
}

// TrendSeries returns pumpID's (time, value) series for metric, in time
// order, served entirely from the resident scalar streams. Nil when the
// pump or metric is absent.
func (p *Partition) TrendSeries(pumpID int, metric string) []SeriesPoint {
	pp := p.pumps[pumpID]
	if pp == nil {
		return nil
	}
	for mi, name := range p.metrics {
		if name != metric {
			continue
		}
		out := make([]SeriesPoint, len(pp.times))
		for i := range out {
			out[i] = SeriesPoint{ServiceDays: pp.times[i], Value: pp.metrics[mi][i]}
		}
		return out
	}
	return nil
}

// Records decompresses and returns pumpID's full records, reading the
// waveform streams from disk. This is the only partition read that
// touches the axis data.
func (p *Partition) Records(pumpID int) ([]*Record, error) {
	pp := p.pumps[pumpID]
	if pp == nil {
		return nil, nil
	}
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	total := 0
	for _, k := range pp.counts {
		total += k
	}
	var axes [3][]int16
	for axis := 0; axis < 3; axis++ {
		stream := make([]byte, pp.axisLen[axis])
		if _, err := f.ReadAt(stream, pp.axisOff[axis]); err != nil {
			return nil, fmt.Errorf("store: read partition axis: %w", err)
		}
		axes[axis] = make([]int16, total)
		if err := DecompressInt16sInto(axes[axis], stream); err != nil {
			return nil, fmt.Errorf("%w: axis %d: %v", ErrBadPartition, axis, err)
		}
	}
	recs := make([]*Record, len(pp.counts))
	off := 0
	for i, k := range pp.counts {
		rec := &Record{
			PumpID:       pumpID,
			ServiceDays:  pp.times[i],
			SampleRateHz: pp.rates[i],
			ScaleG:       pp.scales[i],
		}
		for axis := 0; axis < 3; axis++ {
			rec.Raw[axis] = axes[axis][off : off+k : off+k]
		}
		off += k
		recs[i] = rec
	}
	return recs, nil
}
