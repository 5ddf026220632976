package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRefusesAnUnknownFigure: a -run list with a name no figure has exits 2
// naming every known figure, and runs nothing, not even the known names
// before it.
func TestRefusesAnUnknownFigure(t *testing.T) {
	for _, list := range []string{"fig11", "table1,fig4x", "all,fig11"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-run", list}, &stdout, &stderr); code != 2 {
			t.Errorf("-run %s: exit %d, want 2", list, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-run %s: printed %q, want nothing run", list, stdout.String())
		}
		msg := stderr.String()
		for _, f := range figures(nil) {
			if !strings.Contains(msg, f.name) {
				t.Errorf("-run %s: %q does not name %s", list, msg, f.name)
			}
		}
	}
}
