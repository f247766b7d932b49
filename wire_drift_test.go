package stubby_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/planio"
)

// sameFields reports every field of *got that differs from *want.
func sameFields(t *testing.T, what string, got, want any) {
	t.Helper()
	if reflect.ValueOf(got).IsNil() {
		t.Errorf("%s: lost in the round trip", what)
		return
	}
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s: %s is %v after the round trip, want %v", what, w.Type().Field(i).Name, g.Field(i), w.Field(i))
		}
	}
}

// TestWireCarriesEveryDomainField is the drift guard of the wire records
// that are domain types: every field of stubby.Cluster, stubby.Config and
// stubby.Robustness declares its JSON name, and set to a distinct value it
// comes back from the request, the result and the robustness event — all
// but Robustness.Makespans, which never travels and must not appear in the
// bytes. A field added to one of them can be neither dropped from the wire
// nor put on it by accident.
func TestWireCarriesEveryDomainField(t *testing.T) {
	var cluster stubby.Cluster
	var cfg stubby.Config
	var rob stubby.Robustness
	n := 0
	for _, v := range []any{&cluster, &cfg, &rob} {
		fillDistinct(reflect.ValueOf(v).Elem(), &n)
	}
	for _, v := range []any{cluster, cfg, rob} {
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			if rt.Field(i).Tag.Get("json") == "" {
				t.Errorf("%s.%s has no JSON tag: its wire name must be declared", rt, rt.Field(i).Name)
			}
		}
	}
	wantRob := rob
	wantRob.Makespans = nil

	w := gen.Generate(1, gen.Options{MaxJobs: 2, Records: 60}).Workflow
	for _, j := range w.Jobs {
		j.Config = cfg
	}
	reqData, err := planio.EncodeRequest(&planio.Request{Cluster: &cluster, Plan: w})
	if err != nil {
		t.Fatal(err)
	}
	req, err := planio.DecodeRequest(reqData)
	if err != nil {
		t.Fatal(err)
	}
	sameFields(t, "request cluster", req.Cluster, &cluster)
	for _, j := range req.Plan.Jobs {
		sameFields(t, "request job "+j.ID+" config", &j.Config, &cfg)
	}

	resData, err := planio.EncodeResult(&planio.Result{Plan: w, Robustness: &rob})
	if err != nil {
		t.Fatal(err)
	}
	res, err := planio.DecodeResult(resData)
	if err != nil {
		t.Fatal(err)
	}
	sameFields(t, "result robustness", res.Robustness, &wantRob)

	evData, err := json.Marshal(stubby.EventToDoc(stubby.RobustnessEvent{Workflow: w.Name, Report: &rob}))
	if err != nil {
		t.Fatal(err)
	}
	var doc planio.EventDoc
	if err := json.Unmarshal(evData, &doc); err != nil {
		t.Fatal(err)
	}
	ev, ok := stubby.EventFromDoc(&doc)
	if re, isRob := ev.(stubby.RobustnessEvent); !ok || !isRob {
		t.Errorf("robustness event decoded as %T (known %v)", ev, ok)
	} else {
		sameFields(t, "robustness event", re.Report, &wantRob)
	}

	for name, data := range map[string][]byte{"request": reqData, "result": resData, "event": evData} {
		if bytes.Contains(bytes.ToLower(data), []byte("makespans")) {
			t.Errorf("the %s document carries the per-sample makespans", name)
		}
	}
}
