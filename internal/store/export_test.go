package store

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func seededForExport(t *testing.T) *Store {
	t.Helper()
	m := testModel(t)
	s, err := Open(Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < 5; i++ {
		if err := s.PutNode(mkReq(fmt.Sprintf("r%d", i), "A", fmt.Sprintf("REQ%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutNode(mkPerson("p1", "A", "Joe")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEdge(mkSubmitter("e1", "A", "p1", "r0")); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExportImportRoundTrip(t *testing.T) {
	src := seededForExport(t)
	var buf bytes.Buffer
	if err := src.ExportRows(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 7 {
		t.Fatalf("exported %d lines, want 7", got)
	}

	dst, err := Open(Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	inserted, skipped, err := dst.ImportRows(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if inserted != 7 || skipped != 0 {
		t.Fatalf("import = %d inserted, %d skipped", inserted, skipped)
	}
	// Observable state identical: compare re-exports.
	var buf2 bytes.Buffer
	if err := dst.ExportRows(&buf2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buf.String(), buf2.String()) {
		t.Fatal("re-export differs from original export")
	}
	// Indexes rebuilt through the write path.
	ids, indexed := dst.LookupByAttr("jobRequisition", "reqID",
		mkReq("x", "A", "REQ3").Attr("reqID"))
	if !indexed || len(ids) != 1 || ids[0] != "r3" {
		t.Fatalf("index after import: %v %v", ids, indexed)
	}
}

func TestImportSkipsExisting(t *testing.T) {
	src := seededForExport(t)
	var buf bytes.Buffer
	if err := src.ExportRows(&buf); err != nil {
		t.Fatal(err)
	}
	// Import into the same store: everything already present.
	inserted, skipped, err := src.ImportRows(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if inserted != 0 || skipped != 7 {
		t.Fatalf("self-import = %d inserted, %d skipped", inserted, skipped)
	}
}

func TestImportDeferredEdges(t *testing.T) {
	// A stream with the edge before its endpoints must still import.
	src := seededForExport(t)
	var buf bytes.Buffer
	if err := src.ExportRows(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Move the last line (the edge) to the front.
	reordered := append([]string{lines[len(lines)-1]}, lines[:len(lines)-1]...)
	dst, err := Open(Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	inserted, _, err := dst.ImportRows(strings.NewReader(strings.Join(reordered, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if inserted != 7 {
		t.Fatalf("inserted = %d", inserted)
	}
	if dst.Edge("e1") == nil {
		t.Fatal("deferred edge lost")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	dst, err := Open(Options{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, _, err := dst.ImportRows(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage imported")
	}
	bad := `{"ID":"x","Class":"data","AppID":"A","XML":"<broken"}`
	if _, _, err := dst.ImportRows(strings.NewReader(bad + "\n")); err == nil {
		t.Fatal("broken XML imported")
	}
}
