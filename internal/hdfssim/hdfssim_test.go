package hdfssim

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(nil)
	if err := fs.Write("/data/a.txt", []byte("hello"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("/data/a.txt")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read = %q, %v", got, err)
	}
	info, err := fs.Stat("/data/a.txt")
	if err != nil || info.Length != 5 || info.Compressed {
		t.Fatalf("stat = %+v, %v", info, err)
	}
}

func TestCompressedFilesReportMinusOne(t *testing.T) {
	// SPARK-27239 / Figure 2: the file length is overloaded to −1 for
	// compressed data.
	fs := New(nil)
	if err := fs.Write("/warehouse/part-0.gz", []byte("payload"), WriteOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/warehouse/part-0.gz")
	if err != nil {
		t.Fatal(err)
	}
	if info.Length != CompressedLength {
		t.Errorf("compressed length = %d, want -1", info.Length)
	}
	if info.RawLength != 7 {
		t.Errorf("raw length = %d", info.RawLength)
	}
	// Content remains readable despite the sentinel.
	data, err := fs.Read("/warehouse/part-0.gz")
	if err != nil || string(data) != "payload" {
		t.Errorf("read = %q, %v", data, err)
	}
}

func TestSafeModeRejectsMutations(t *testing.T) {
	// HBASE-537: mutations against a NameNode in safe mode fail.
	fs := New(nil)
	fs.SetSafeMode(true)
	if err := fs.Write("/x", []byte("1"), WriteOptions{}); !errors.Is(err, ErrSafeMode) {
		t.Errorf("write in safe mode = %v", err)
	}
	fs.SetSafeMode(false)
	if err := fs.Write("/x", []byte("1"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	fs.SetSafeMode(true)
	if err := fs.Delete("/x"); !errors.Is(err, ErrSafeMode) {
		t.Errorf("delete in safe mode = %v", err)
	}
	// Reads are allowed in safe mode.
	if _, err := fs.Read("/x"); err != nil {
		t.Errorf("read in safe mode = %v", err)
	}
}

func TestOverwriteSemantics(t *testing.T) {
	fs := New(nil)
	if err := fs.Write("/f", []byte("a"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", []byte("b"), WriteOptions{}); !errors.Is(err, ErrExists) {
		t.Errorf("non-overwrite = %v", err)
	}
	if err := fs.Write("/f", []byte("b"), WriteOptions{Overwrite: true}); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.Read("/f")
	if string(data) != "b" {
		t.Errorf("data = %q", data)
	}
}

func TestListAndExists(t *testing.T) {
	fs := New(nil)
	for _, p := range []string{"/w/t1/part-0", "/w/t1/part-1", "/w/t2/part-0"} {
		if err := fs.Write(p, nil, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/w/t1")
	if len(got) != 2 || got[0] != "/w/t1/part-0" || got[1] != "/w/t1/part-1" {
		t.Errorf("list = %v", got)
	}
	if !fs.Exists("/w/t2/part-0") || fs.Exists("/nope") {
		t.Error("exists wrong")
	}
}

// treeFS holds a table directory /w/t that is also a file, a nested
// subtree under it, and the sibling-prefix paths that sort around it.
func treeFS(t *testing.T) *FileSystem {
	t.Helper()
	fs := New(nil)
	for _, p := range []string{"/w/t/b/part-1", "/w/t_rw/part-0", "/w/t", "/w/t-x", "/w/t/a/part-0", "/w/u/part-0"} {
		if err := fs.Write(p, []byte(p), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func TestListPrefixSemantics(t *testing.T) {
	fs := treeFS(t)
	want := []string{"/w/t", "/w/t/a/part-0", "/w/t/b/part-1"}
	if got := fs.List("/w/t"); !slices.Equal(got, want) {
		t.Errorf("List(/w/t) = %v, want %v (exact file, nested subtree, no siblings, sorted)", got, want)
	}
	if got := fs.List("/w/t/"); !slices.Equal(got, want) {
		t.Errorf("List(/w/t/) = %v, want %v", got, want)
	}
	if got := fs.List("/w/t-x"); !slices.Equal(got, []string{"/w/t-x"}) {
		t.Errorf("List(/w/t-x) = %v", got)
	}
	// Overwriting a file replaces it in place: it is listed once.
	if err := fs.Write("/w/t/a/part-0", []byte("new"), WriteOptions{Overwrite: true}); err != nil {
		t.Fatal(err)
	}
	if got := fs.List("/w/t"); !slices.Equal(got, want) {
		t.Errorf("List after overwrite = %v, want %v", got, want)
	}
	if data, _ := fs.Read("/w/t/a/part-0"); string(data) != "new" {
		t.Errorf("overwritten data = %q", data)
	}
	if got := fs.List("/w/none"); len(got) != 0 {
		t.Errorf("List(/w/none) = %v", got)
	}
}

func TestDeleteTree(t *testing.T) {
	fs := treeFS(t)
	if err := fs.DeleteTree("/w/t"); err != nil {
		t.Fatal(err)
	}
	// DeleteTree removes exactly what List returned; the sibling-prefix
	// paths survive.
	want := []string{"/w/t-x", "/w/t_rw/part-0", "/w/u/part-0"}
	if got := fs.List("/w"); !slices.Equal(got, want) {
		t.Errorf("after DeleteTree(/w/t): %v, want %v", got, want)
	}
	if err := fs.DeleteTree("/w/t"); err != nil {
		t.Errorf("DeleteTree of an empty prefix = %v, want nil", err)
	}
	if err := fs.DeleteTree("/w/t-x"); err != nil || fs.Exists("/w/t-x") {
		t.Errorf("DeleteTree of a lone file: err %v, exists %v", err, fs.Exists("/w/t-x"))
	}
}

func TestDeleteTreeSafeMode(t *testing.T) {
	fs := treeFS(t)
	before := fs.List("/w")
	fs.SetSafeMode(true)
	if err := fs.DeleteTree("/w/t"); !errors.Is(err, ErrSafeMode) {
		t.Errorf("DeleteTree in safe mode = %v", err)
	}
	if got := fs.List("/w"); !slices.Equal(got, before) {
		t.Errorf("safe-mode DeleteTree removed files: %v, want %v", got, before)
	}
}

// List and DeleteTree select the same paths: the prefix itself and what
// lies below it, never a sibling whose name merely starts with it.
func TestListAndDeleteTreeSelectAlike(t *testing.T) {
	paths := []string{"/w/t", "/w/t/a/part-0", "/w/t/b/c/part-1", "/w/t_rw/part-0", "/w/t-x", "/w/tx/part-0", "/w/u"}
	for _, c := range []struct {
		prefix string
		want   []string
	}{
		{"/w/t", []string{"/w/t", "/w/t/a/part-0", "/w/t/b/c/part-1"}},
		{"/w/t/a/part-0", []string{"/w/t/a/part-0"}},
		{"/w/t/b", []string{"/w/t/b/c/part-1"}},
		{"/w/t_rw", []string{"/w/t_rw/part-0"}},
		{"/w/t-x", []string{"/w/t-x"}},
		{"/w/tx", []string{"/w/tx/part-0"}},
		{"/w/t/a/part", nil},
	} {
		fs := New(nil)
		for _, p := range paths {
			if err := fs.Write(p, nil, WriteOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := fs.List(c.prefix); !slices.Equal(got, c.want) {
			t.Errorf("List(%s) = %v, want %v", c.prefix, got, c.want)
		}
		if err := fs.DeleteTree(c.prefix); err != nil {
			t.Fatal(err)
		}
		var deleted []string
		for _, p := range paths {
			if !fs.Exists(p) {
				deleted = append(deleted, p)
			}
		}
		if !slices.Equal(deleted, c.want) {
			t.Errorf("DeleteTree(%s) removed %v, want %v", c.prefix, deleted, c.want)
		}
	}
}

func TestDeleteTreeAllocatesNothing(t *testing.T) {
	fs := treeFS(t)
	if n := testing.AllocsPerRun(100, func() { _ = fs.DeleteTree("/w/t") }); n != 0 {
		t.Errorf("DeleteTree allocates %.0f objects per call, want 0", n)
	}
}

func TestTokenLifecycle(t *testing.T) {
	// YARN-2790 model: tokens expire on the virtual clock; renewal
	// extends them.
	clock := vclock.New()
	fs := New(clock)
	fs.SetTokenTTL(1000)
	if err := fs.Write("/f", []byte("x"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	tok := fs.IssueToken("yarn-rm")
	if _, err := fs.ReadWithToken("/f", tok.ID); err != nil {
		t.Fatalf("fresh token read: %v", err)
	}
	clock.Run(1500)
	if _, err := fs.ReadWithToken("/f", tok.ID); !errors.Is(err, ErrTokenExpired) {
		t.Errorf("expired token read = %v", err)
	}
	if err := fs.RenewToken(tok.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadWithToken("/f", tok.ID); err != nil {
		t.Errorf("renewed token read = %v", err)
	}
	if _, err := fs.ReadWithToken("/f", 999); !errors.Is(err, ErrBadToken) {
		t.Errorf("unknown token = %v", err)
	}
}

func TestLocalityProperty(t *testing.T) {
	// FLINK-13758 model: locality is a custom per-file property.
	fs := New(nil)
	if err := fs.Write("/local", nil, WriteOptions{Local: true}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/remote", nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	li, _ := fs.Stat("/local")
	ri, _ := fs.Stat("/remote")
	if !li.Local || ri.Local {
		t.Errorf("locality: local=%v remote=%v", li.Local, ri.Local)
	}
}

func TestPathNormalization(t *testing.T) {
	fs := New(nil)
	if err := fs.Write("noslash", []byte("x"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/noslash") {
		t.Error("path not normalized")
	}
	if err := fs.Write("/trail/", []byte("y"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/trail") {
		t.Error("trailing slash not trimmed")
	}
}

func TestReadMissing(t *testing.T) {
	fs := New(nil)
	if _, err := fs.Read("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if _, err := fs.Stat("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if err := fs.Delete("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestWriteReadPropertyIsolation(t *testing.T) {
	// Data handed to Write and returned from Read is isolated from
	// caller mutation.
	fs := New(nil)
	f := func(data []byte) bool {
		if err := fs.Write("/p", data, WriteOptions{Overwrite: true}); err != nil {
			return false
		}
		if len(data) > 0 {
			data[0] ^= 0xff
		}
		got, err := fs.Read("/p")
		if err != nil || len(got) != len(data) {
			return false
		}
		if len(data) > 0 && got[0] == data[0] {
			return false // mutation leaked in
		}
		got2, _ := fs.Read("/p")
		if len(got) > 0 {
			got[0] ^= 0xff
			if got2[0] == got[0] {
				return false // mutation leaked out
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
