package prog

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse checks the parser/printer pair on arbitrary input: any source
// that parses must survive a Format -> Parse -> Format round trip with the
// second Format a fixpoint (Format is the canonical form, so re-parsing
// canonical output must reproduce it exactly).
func FuzzParse(f *testing.F) {
	dir := filepath.Join("..", "..", "examples", "lang")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("seed corpus: %v", err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".tyr" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatalf("seed corpus: %v", err)
		}
		f.Add(string(src))
	}
	f.Add("program p\nfunc main() { ret 0 }\n")
	f.Add(shadowLoopSource) // parses and formats; only Check rejects it

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejecting malformed input is fine; crashing is not
		}
		canon := Format(p)
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ninput: %q\ncanonical:\n%s", err, src, canon)
		}
		if again := Format(p2); again != canon {
			t.Fatalf("Format not a fixpoint after re-parse:\nfirst:\n%s\nsecond:\n%s", canon, again)
		}
	})
}
