package ontology

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// readArtifact reads the boot artifact at path and refuses anything that
// is not GIANTBIN. JSON is an import/export format only; the error names
// the tool that converts it.
func readArtifact(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !IsBinary(data) {
		return nil, fmt.Errorf("%w: %s (boot artifacts are GIANTBIN only; convert a JSON ontology with giantctl convert -in %s -out <file>.bin)", ErrBadMagic, path, path)
	}
	return data, nil
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
