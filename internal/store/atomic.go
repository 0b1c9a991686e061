package store

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// tempInfix marks a file writeFileAtomic has not renamed into place
// yet: <final name>.tmp<random digits>.
const tempInfix = ".tmp"

// writeFileAtomic is the one way a file other than a log segment
// reaches disk — the checkpoint snapshot, cold partitions, the corpus
// and label files, the engine's model file: fill writes the content
// into a temp file beside path, which is fsynced, closed and only then
// renamed over path, and the directory is fsynced so the new name
// survives too. A crash at any
// byte therefore leaves the previous file (or none) intact plus a temp
// the next open sweeps away. wrap, when non-nil, interposes on the temp
// file exactly as WALOptions.WrapFile does on a segment.
func writeFileAtomic(path string, wrap func(path string, f *os.File) SegmentFile, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+tempInfix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	var sf SegmentFile = f
	if wrap != nil {
		sf = wrap(tmp, f)
	}
	err = fill(sf)
	if err == nil {
		err = sf.Sync()
	}
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Best-effort: some filesystems refuse directory syncs.
	if df, err := os.Open(dir); err == nil {
		_ = df.Sync()
		df.Close()
	}
	return nil
}

// WriteFileAtomic is writeFileAtomic for a file outside the durable
// store's fault-injection seam.
func WriteFileAtomic(path string, fill func(io.Writer) error) error {
	return writeFileAtomic(path, nil, fill)
}

// removeStaleTemps deletes the temps a writeFileAtomic that died before
// its rename left in dir. Whatever such a temp held is still covered by
// the file it was going to replace and the log, so it is garbage — and
// a snapshot temp is as large as the whole store.
func removeStaleTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.Contains(e.Name(), tempInfix) {
			// A temp that cannot be removed costs disk, not correctness.
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}
