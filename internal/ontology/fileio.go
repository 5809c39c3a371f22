package ontology

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FileFormat selects the on-disk encoding of a snapshot or shard artifact.
type FileFormat int

const (
	// FormatJSON is the human-readable debug/interchange format.
	FormatJSON FileFormat = iota
	// FormatBinary is the GIANTBIN columnar format built for fast boot.
	FormatBinary
)

// ParseFileFormat maps the CLI spelling ("json" or "binary") to a format.
func ParseFileFormat(s string) (FileFormat, error) {
	switch s {
	case "json":
		return FormatJSON, nil
	case "binary", "bin":
		return FormatBinary, nil
	}
	return 0, fmt.Errorf("ontology: unknown format %q (want json or binary)", s)
}

// String returns the CLI spelling of the format.
func (f FileFormat) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "json"
}

// writeFileAtomic writes a file crash-safely: the payload is streamed to a
// temp file in the destination directory, fsynced, and renamed over path.
// A reader (or a crash) can therefore only ever observe the old complete
// file or the new complete file — never a partial write, so a daemon
// restarted on the path boots a whole artifact.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	// CreateTemp opens 0600; published artifacts should be world-readable
	// like a plain os.Create would have produced.
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
