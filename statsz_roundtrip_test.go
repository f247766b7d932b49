package stubby_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planio"
)

// fillDistinct sets every scalar reachable from v — through structs,
// pointers and slices, which it allocates (a slice two long) — to a
// non-zero value no other field got (bools, having one, all get true).
// Values are handed out in field order.
func fillDistinct(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Bool:
		v.SetBool(true)
	default:
		*next++
		switch {
		case v.CanInt():
			v.SetInt(int64(*next))
		case v.CanUint():
			v.SetUint(uint64(*next))
		case v.CanFloat():
			v.SetFloat(float64(*next) + 0.5)
		case v.Kind() == reflect.String:
			v.SetString(fmt.Sprintf("s%d", *next))
		default:
			panic(fmt.Sprintf("fillDistinct: no value for a %s", v.Type()))
		}
	}
}

// scalars lists, in field order, the printed value of every scalar
// reachable from v.
func scalars(v reflect.Value) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return []string{"<nil>"}
		}
		return scalars(v.Elem())
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, scalars(v.Field(i))...)
		}
		return out
	default:
		return []string{fmt.Sprint(v.Interface())}
	}
}

// TestStatszRoundTripComplete: every field of a /statsz document reaches
// the ServiceStats a Client returns. The document is filled by reflection
// with a distinct value per field and served as a server would; since
// ServiceStats lists the same sections in the same order (the queue
// flattened), the two must read the same scalar for scalar — so a counter
// added to a section later is covered without editing this test. The filled
// document's bytes are pinned too: unlike a live server's, they show every
// omitempty counter.
func TestStatszRoundTripComplete(t *testing.T) {
	statsGoldenUpdateGuard(t)
	var doc planio.StatszDoc
	n := 0
	fillDistinct(reflect.ValueOf(&doc).Elem(), &n)
	body, err := json.Marshal(&doc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "wire", "statsz-filled.golden"), indentJSON(t, body))

	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	defer hs.Close()
	c, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sent, got := scalars(reflect.ValueOf(doc)), scalars(reflect.ValueOf(*st))
	if !reflect.DeepEqual(sent, got) {
		t.Errorf("Client.Stats lost or moved a /statsz field\n sent %v\n got  %v", sent, got)
	}
}

// TestStatsEventsRoundTripComplete: every field of the three stats-carrying
// events survives eventToDoc → JSON → eventFromDoc.
func TestStatsEventsRoundTripComplete(t *testing.T) {
	for _, ev := range []any{&stubby.CacheReportEvent{}, &stubby.PlanStoreEvent{}, &stubby.ReuseReportEvent{}} {
		n := 0
		fillDistinct(reflect.ValueOf(ev).Elem(), &n)
		want := reflect.ValueOf(ev).Elem().Interface().(stubby.Event)
		line, err := json.Marshal(stubby.EventToDoc(want))
		if err != nil {
			t.Fatal(err)
		}
		var doc planio.EventDoc
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatal(err)
		}
		got, ok := stubby.EventFromDoc(&doc)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%T round trip:\n sent %+v\n got  %+v\n line %s", want, want, got, line)
		}
	}
}
