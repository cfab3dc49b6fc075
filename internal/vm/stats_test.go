package vm

import (
	"reflect"
	"testing"
)

// TestCountsAreWords: Add views a Counts as an array of words, so every field must be one 64-bit integer at its word's offset.
func TestCountsAreWords(t *testing.T) {
	ty := reflect.TypeOf(Counts{})
	if uintptr(ty.NumField()) != countWords {
		t.Fatalf("Counts has %d fields in %d words", ty.NumField(), countWords)
	}
	for i := range ty.NumField() {
		f := ty.Field(i)
		if k := f.Type.Kind(); k != reflect.Uint64 && k != reflect.Int64 || f.Offset != uintptr(i)*8 {
			t.Errorf("Counts.%s is a %v at offset %d, want a 64-bit integer at %d", f.Name, f.Type, f.Offset, i*8)
		}
	}
	var c, o Counts
	for i := range o.words() {
		o.words()[i] = uint64(i + 1)
	}
	c.Add(&o)
	c.Add(&o)
	v := reflect.ValueOf(c)
	for i := range ty.NumField() {
		if got := v.Field(i).Convert(reflect.TypeOf(uint64(0))).Uint(); got != uint64(2*(i+1)) {
			t.Errorf("two Adds left Counts.%s at %d, want %d", ty.Field(i).Name, got, 2*(i+1))
		}
	}
}
