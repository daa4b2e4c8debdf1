package prefetch

import (
	"reflect"
	"testing"
)

// TestEventLineTakesPointer pins Event.Line to a pointer receiver. Train
// receives its Event in registers and spills it field by field; a value
// receiver made Go reload the spilled struct as one 16-byte copy, which
// stalled on store forwarding in every engine's Train.
func TestEventLineTakesPointer(t *testing.T) {
	if _, ok := reflect.TypeFor[Event]().MethodByName("Line"); ok {
		t.Error("Event has a value-receiver Line; declare it on *Event")
	}
	if _, ok := reflect.TypeFor[*Event]().MethodByName("Line"); !ok {
		t.Error("*Event has no Line method")
	}
}
