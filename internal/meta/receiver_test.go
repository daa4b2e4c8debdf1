package meta

import (
	"reflect"
	"testing"
)

// TestEntryValidTakesPointer pins Entry.Valid to a pointer receiver. Insert
// receives its Entry in registers and spills it field by field; a value
// receiver made Go reload the spilled struct as one 16-byte copy, which
// stalled on store forwarding on every insert.
func TestEntryValidTakesPointer(t *testing.T) {
	if _, ok := reflect.TypeFor[Entry]().MethodByName("Valid"); ok {
		t.Error("Entry has a value-receiver Valid; declare it on *Entry")
	}
	if _, ok := reflect.TypeFor[*Entry]().MethodByName("Valid"); !ok {
		t.Error("*Entry has no Valid method")
	}
}
