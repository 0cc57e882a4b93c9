package store

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// FS is every file-system operation the store makes, and the only way it
// reaches the disk: the seam tests inject faults through (storetest) or
// record a workload's writes at to rebuild each crash state.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	Walk(root string, fn filepath.WalkFunc) error
	CreateTemp(dir, pattern string) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chtimes(name string, atime, mtime time.Time) error
}

// File is an open file of an FS.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	Name() string
	Stat() (fs.FileInfo, error)
}

// OS is the operating system's file system, the one a nil Options.FS
// selects: each method is one call to the os or filepath function of its
// name.
type OS struct{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Walk(root string, fn filepath.WalkFunc) error { return filepath.Walk(root, fn) }
func (OS) CreateTemp(dir, pattern string) (File, error) { return file(os.CreateTemp(dir, pattern)) }
func (OS) Open(name string) (File, error)               { return file(os.Open(name)) }
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }

func (OS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// file returns a failed open's File as nil, not as a nil *os.File inside a
// non-nil interface.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}
