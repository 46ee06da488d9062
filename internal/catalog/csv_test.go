package catalog

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoadCSV(t *testing.T) {
	schema := testSchema() // id int64, name string
	data := "name,id\nalpha,1\nbeta,2\ngamma,3\n"
	tab, err := LoadCSV(schema, strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows != 3 {
		t.Fatalf("rows = %d", tab.NumRows)
	}
	if tab.IntCol("id")[1] != 2 || tab.StrCol("name")[2] != "gamma" {
		t.Fatalf("values wrong: %v %v", tab.Ints, tab.Strs)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	schema := testSchema()
	cases := []string{
		"",                      // no header
		"id\n1\n",               // missing column
		"id,name\nnotanint,x\n", // bad integer
		"id,name\n1\n",          // short row
	}
	for _, data := range cases {
		if _, err := LoadCSV(schema, strings.NewReader(data)); err == nil {
			t.Fatalf("LoadCSV(%q) should fail", data)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	schema := testSchema()
	src := NewTable(schema, 3)
	copy(src.Ints["id"], []int64{10, 20, 30})
	copy(src.Strs["name"], []string{"a", "b,with,commas", "c"})

	var buf bytes.Buffer
	if err := WriteCSV(src, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCSV(schema, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumRows != 3 {
		t.Fatalf("rows = %d", restored.NumRows)
	}
	for i := range src.Ints["id"] {
		if restored.IntCol("id")[i] != src.IntCol("id")[i] ||
			restored.StrCol("name")[i] != src.StrCol("name")[i] {
			t.Fatalf("row %d not preserved", i)
		}
	}
}

func TestLoadCSVEmptyTable(t *testing.T) {
	tab, err := LoadCSV(testSchema(), strings.NewReader("id,name\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows != 0 {
		t.Fatalf("rows = %d", tab.NumRows)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}
