package jobs

import (
	"encoding/json"
	"testing"
)

// TestSpecFingerprintPinned pins the content-addressed IDs of one design
// spec and one cc figure spec. Journals, rows-<id>.jsonl files and
// eval-cache directories are keyed by these IDs, so a Spec field change
// that moves them would orphan every state dir written before it.
func TestSpecFingerprintPinned(t *testing.T) {
	cases := []struct {
		label string
		spec  Spec
		want  string
	}{
		{"design", Spec{Kind: KindDesign, Design: json.RawMessage(`{"goal":{"gamma":1e-5,"tau":3600000}}`), Strategy: "OPT", MaxCost: 20}, "b2f702521c66faaf"},
		{"cc", Spec{Kind: KindFigure, Fig: "cc"}, "0365ce12353ec764"},
	}
	for _, c := range cases {
		got, err := c.spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: ID %s, want %s", c.label, got, c.want)
		}
	}
}
