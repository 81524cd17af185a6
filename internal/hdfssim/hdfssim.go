// Package hdfssim simulates an HDFS-like distributed file system
// namespace with the cross-system-visible behaviours the failure study
// depends on:
//
//   - compressed files report length −1 through Stat, the overloaded
//     custom metadata behind SPARK-27239 (Figure 2);
//   - a NameNode safe mode in which mutations are rejected, the state
//     HBase wrongly assumed away in HBASE-537;
//   - delegation tokens with expiry on a virtual clock, the mechanism
//     behind the YARN-2790 token-renewal fix;
//   - per-file locality (local vs. remote block placement), the custom
//     property upstream systems must special-case (FLINK-13758).
//
// The simulator is safe for concurrent use.
package hdfssim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/csi"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Common error classes surfaced across the system boundary.
var (
	ErrNotFound     = fmt.Errorf("hdfs: file not found")
	ErrExists       = fmt.Errorf("hdfs: file already exists")
	ErrSafeMode     = fmt.Errorf("hdfs: NameNode is in safe mode; mutations are rejected")
	ErrTokenExpired = fmt.Errorf("hdfs: delegation token expired")
	ErrBadToken     = fmt.Errorf("hdfs: invalid delegation token")
)

// CompressedLength is the sentinel length reported for compressed
// files: the undefined value whose interpretation differs across
// systems (Figure 2 of the paper).
const CompressedLength = int64(-1)

// FileInfo is the metadata visible to upstream systems.
type FileInfo struct {
	Path       string
	Length     int64 // CompressedLength (−1) for compressed files
	RawLength  int64 // actual byte length, not part of the POSIX surface
	Compressed bool  // custom (non-POSIX) property
	Local      bool  // custom property: blocks resident on the caller's node
	ModTimeMs  int64
}

// Token is a delegation token with a virtual-clock expiry.
type Token struct {
	ID       int64
	Renewer  string
	ExpiryMs int64
}

type file struct {
	data       []byte
	compressed bool
	local      bool
	modTimeMs  int64
}

// FileSystem is the simulated HDFS namespace.
type FileSystem struct {
	mu       sync.Mutex
	clock    *vclock.Sim
	tracer   *obs.Tracer
	traceTop *obs.Span
	files    map[string]*file
	safeMode bool

	nextToken  int64
	tokens     map[int64]*Token
	tokenTTLMs int64
	statCalls  int64
	writeCalls int64
	readCalls  int64

	leases     map[string]*leaseState
	leaseTTLMs int64
	replicas   map[string][]string
}

// DefaultTokenTTLMs is the default delegation-token lifetime.
const DefaultTokenTTLMs = 24 * 3600 * 1000

// New creates an empty file system on the given virtual clock. A nil
// clock gets a private one (time stays at zero unless advanced).
func New(clock *vclock.Sim) *FileSystem {
	if clock == nil {
		clock = vclock.New()
	}
	return &FileSystem{
		clock:      clock,
		files:      make(map[string]*file),
		tokens:     make(map[int64]*Token),
		tokenTTLMs: DefaultTokenTTLMs,
	}
}

// Clock exposes the file system's virtual clock.
func (fs *FileSystem) Clock() *vclock.Sim { return fs.clock }

// SetTrace attaches a tracer and a default parent span; the file
// system then emits a span for every operation that crosses its
// boundary (write, read, stat, token checks). A nil tracer disables
// emission.
func (fs *FileSystem) SetTrace(tr *obs.Tracer, parent *obs.Span) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tracer = tr
	fs.traceTop = parent
}

// span emits a completed boundary span; call with fs.mu held.
func (fs *FileSystem) span(plane csi.Plane, name, path string, err error) *obs.Span {
	if fs.tracer == nil {
		return nil
	}
	sp := fs.tracer.Span(fs.traceTop, csi.HDFS, plane, name)
	if path != "" {
		sp.Set("path", path)
	}
	sp.Fail(err)
	sp.End()
	return sp
}

// SetSafeMode toggles NameNode safe mode.
func (fs *FileSystem) SetSafeMode(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.safeMode = on
}

// InSafeMode reports whether the NameNode is in safe mode.
func (fs *FileSystem) InSafeMode() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.safeMode
}

func clean(path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return strings.TrimSuffix(path, "/")
}

// WriteOptions control block placement and on-write compression.
type WriteOptions struct {
	Compress  bool
	Local     bool
	Overwrite bool
}

// Write stores data at path.
func (fs *FileSystem) Write(path string, data []byte, opts WriteOptions) error {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writeCalls++
	err := fs.writeLocked(path, data, opts)
	sp := fs.span(csi.DataPlane, "write", path, err)
	if opts.Compress {
		sp.Set("compressed", "true")
	}
	return err
}

func (fs *FileSystem) writeLocked(path string, data []byte, opts WriteOptions) error {
	if fs.safeMode {
		return ErrSafeMode
	}
	if _, ok := fs.files[path]; ok && !opts.Overwrite {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	fs.files[path] = &file{
		data:       append([]byte(nil), data...),
		compressed: opts.Compress,
		local:      opts.Local,
		modTimeMs:  fs.clock.Now(),
	}
	return nil
}

// Read returns the file content.
func (fs *FileSystem) Read(path string) ([]byte, error) {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.readCalls++
	f, ok := fs.files[path]
	if !ok {
		err := fmt.Errorf("%w: %s", ErrNotFound, path)
		fs.span(csi.DataPlane, "read", path, err)
		return nil, err
	}
	fs.span(csi.DataPlane, "read", path, nil)
	return append([]byte(nil), f.data...), nil
}

// Stat returns file metadata. For compressed files the reported Length
// is −1 — the discrepancy of SPARK-27239.
func (fs *FileSystem) Stat(path string) (FileInfo, error) {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.statCalls++
	f, ok := fs.files[path]
	if !ok {
		err := fmt.Errorf("%w: %s", ErrNotFound, path)
		fs.span(csi.DataPlane, "stat", path, err)
		return FileInfo{}, err
	}
	info := FileInfo{
		Path:       path,
		Length:     int64(len(f.data)),
		RawLength:  int64(len(f.data)),
		Compressed: f.compressed,
		Local:      f.local,
		ModTimeMs:  f.modTimeMs,
	}
	if f.compressed {
		info.Length = CompressedLength
	}
	if fs.tracer != nil {
		fs.span(csi.DataPlane, "stat", path, nil).Set("length", strconv.FormatInt(info.Length, 10))
	}
	return info, nil
}

// Delete removes a file.
func (fs *FileSystem) Delete(path string) error {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.safeMode {
		return ErrSafeMode
	}
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(fs.files, path)
	return nil
}

// DeleteTree removes the file at prefix and every file under prefix+"/",
// matching exactly the paths List(prefix) returns: a sibling such as
// prefix+"_rw" or prefix+"-x" survives. A prefix with nothing under it
// is not an error.
func (fs *FileSystem) DeleteTree(prefix string) error {
	prefix = clean(prefix)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.safeMode {
		return ErrSafeMode
	}
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) && (len(p) == len(prefix) || p[len(prefix)] == '/') {
			delete(fs.files, p)
		}
	}
	return nil
}

// List returns the paths under the given prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	prefix = clean(prefix)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir := prefix + "/"
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, dir) || p == prefix {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Exists reports whether the path exists.
func (fs *FileSystem) Exists(path string) bool {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// IssueToken issues a delegation token valid for the configured TTL.
func (fs *FileSystem) IssueToken(renewer string) *Token {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.nextToken++
	t := &Token{ID: fs.nextToken, Renewer: renewer, ExpiryMs: fs.clock.Now() + fs.tokenTTLMs}
	fs.tokens[t.ID] = t
	return t
}

// SetTokenTTL overrides the token lifetime for subsequently issued
// tokens (the "small timeout value" hazard of YARN-2790).
func (fs *FileSystem) SetTokenTTL(ms int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tokenTTLMs = ms
}

// RenewToken extends a token's expiry by the configured TTL.
func (fs *FileSystem) RenewToken(id int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, ok := fs.tokens[id]
	if !ok {
		return ErrBadToken
	}
	t.ExpiryMs = fs.clock.Now() + fs.tokenTTLMs
	return nil
}

// CheckToken validates a token against the virtual clock.
func (fs *FileSystem) CheckToken(id int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, ok := fs.tokens[id]
	if !ok {
		return ErrBadToken
	}
	if fs.clock.Now() > t.ExpiryMs {
		return ErrTokenExpired
	}
	return nil
}

// ReadWithToken is Read gated by a delegation token, the access path
// exercised by the YARN-2790 replay.
func (fs *FileSystem) ReadWithToken(path string, tokenID int64) ([]byte, error) {
	if err := fs.CheckToken(tokenID); err != nil {
		return nil, err
	}
	return fs.Read(path)
}

// Stats reports operation counters for benches.
func (fs *FileSystem) Stats() (stats, writes, reads int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.statCalls, fs.writeCalls, fs.readCalls
}
