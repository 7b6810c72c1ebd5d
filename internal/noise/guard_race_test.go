//go:build race

package noise

import (
	"strings"
	"testing"
)

// TestGuardPanicsOnOverlappingUse verifies the race-build guard: entering a
// Source that is already mid-operation (the state two goroutines sharing one
// stream would produce) must panic with a message pointing at Split. The
// overlap is simulated deterministically by holding the guard open.
func TestGuardPanicsOnOverlappingUse(t *testing.T) {
	for name, draw := range map[string]func(*Source){
		"Uniform": func(s *Source) { s.Uniform() },
		"Skip":    func(s *Source) { s.Skip(1) },
	} {
		t.Run(name, func(t *testing.T) {
			s := NewSource(1)
			s.guard.enter()
			defer s.guard.exit()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("overlapping Source use did not panic in race build")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "Split") {
					t.Fatalf("panic %v does not point the user at Split", r)
				}
			}()
			draw(s)
		})
	}
}
