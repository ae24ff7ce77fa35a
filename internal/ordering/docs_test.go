package ordering_test

import (
	"os"
	"strings"
	"testing"

	"bear/internal/ordering"
)

// TestDocsMentionEveryBuiltin is a doc-drift guard: every engine name must
// appear in the operator-facing docs. Adding an engine without documenting
// it (DESIGN.md architecture section, OPERATIONS.md ordering guidance)
// fails this test rather than silently shipping an undocumented knob.
func TestDocsMentionEveryBuiltin(t *testing.T) {
	for _, doc := range []string{"../../DESIGN.md", "../../OPERATIONS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		text := string(data)
		for _, name := range ordering.Names() {
			if !strings.Contains(text, name) {
				t.Errorf("%s does not mention ordering engine %q; document new engines before adding them", doc, name)
			}
		}
	}
}
