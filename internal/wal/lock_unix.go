//go:build unix

package wal

import (
	"os"
	"syscall"
)

// lockFile takes an exclusive advisory lock on path (created if absent)
// and returns the function that releases it, blocking while another
// holder — in this process or any other — has it. The lock belongs to
// the open file, so the kernel drops it when the holder exits or
// crashes; the file itself is left in place for the next publisher.
func lockFile(path string) (unlock func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return func() { f.Close() }, nil // closing the descriptor releases the lock
}
