package telemetry

import (
	"strings"
	"testing"
)

// TestSafeToken pins the token rule the server applies to inbound request
// IDs and the store to tenant directory names.
func TestSafeToken(t *testing.T) {
	for s, want := range map[string]bool{
		"":                      false,
		"abc-DEF_0.9":           true,
		strings.Repeat("x", 64): true,
		strings.Repeat("x", 65): false,
		"has space":             false,
		"semi;colon":            false,
		"../etc":                false,
		"ünï":                   false,
	} {
		if got := SafeToken(s); got != want {
			t.Errorf("SafeToken(%q) = %v, want %v", s, got, want)
		}
	}
	for i := 0; i < 4; i++ {
		if id := NewRequestID(); len(id) != 16 || !SafeToken(id) {
			t.Fatalf("NewRequestID() = %q, want 16 safe chars", id)
		}
	}
}
