//go:build !unix

package wal

import "sync"

var lockFileMu sync.Mutex

// lockFile has no advisory file lock to take on this platform: it
// serializes the publishers of this process only.
func lockFile(string) (unlock func(), err error) {
	lockFileMu.Lock()
	return lockFileMu.Unlock, nil
}
