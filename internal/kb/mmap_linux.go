//go:build linux

package kb

import (
	"os"
	"syscall"
)

// mmapSupported gates the mmap read path at compile time.
const mmapSupported = true

// mapFile maps size bytes of f read-only and shared, so the pages are
// backed by the page cache and shared with every other mapping of the
// same snapshot file.
func mapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || size != int64(int(size)) {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapFile releases a mapping made by mapFile.
func unmapFile(data []byte) error { return syscall.Munmap(data) }
