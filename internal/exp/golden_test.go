package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files pin every reproduced number by value: they hold the
// output of `go run ./cmd/elpsim all` (elpsim_all.golden) and of
// `go run ./cmd/elpsim -csv fig11 fig12 fig13 fig14` (elpsim_csv.golden).
// A change that moves a figure fails here at its first differing line;
// such a change regenerates the file with the same command and says in
// CHANGES.md why the number moved.

func TestGoldenRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "elpsim_all.golden", buf.String())
}

func TestGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"fig11", "fig12", "fig13", "fig14"} {
		if _, err := CSV(id, &buf); err != nil {
			t.Fatalf("CSV(%s): %v", id, err)
		}
	}
	checkGolden(t, "elpsim_csv.golden", buf.String())
}

// checkGolden compares got with testdata/name and reports the first line
// where they differ.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	for i := 0; ; i++ {
		if g, w := line(gotLines, i), line(wantLines, i); g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
}
