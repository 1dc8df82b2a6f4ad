//go:build !linux

package kb

import (
	"errors"
	"os"
)

// mmapSupported gates the mmap read path at compile time; on
// platforms without a wired-up mmap, LoadSnapshotFile reads the file
// through LoadSnapshot.
const mmapSupported = false

func mapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.New("kb: mmap not supported on this platform")
}

func unmapFile(data []byte) error { return nil }
