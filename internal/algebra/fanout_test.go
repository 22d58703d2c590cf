package algebra_test

import (
	"errors"
	"fmt"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/schema"
	"serena/internal/value"
)

func sensorRelation(n int, refs ...string) *algebra.XRelation {
	tuples := make([]value.Tuple, 0, n+len(refs))
	for _, r := range refs {
		tuples = append(tuples, value.Tuple{value.NewService(r), value.NewString("lab")})
	}
	for i := 0; i < n; i++ {
		tuples = append(tuples, value.Tuple{
			value.NewService(fmt.Sprintf("ok%03d", i)), value.NewString("lab"),
		})
	}
	return algebra.MustNew(paperenv.SensorsSchema(), tuples)
}

// listRecorder records every work list it receives and answers each job
// from results (by ref) or with one reading.
type listRecorder struct {
	lists   [][]string
	results map[string]algebra.InvokeResult
}

func (lr *listRecorder) InvokeAll(_ schema.BindingPattern, jobs []algebra.InvokeJob) []algebra.InvokeResult {
	refs := make([]string, len(jobs))
	out := make([]algebra.InvokeResult, len(jobs))
	for i, j := range jobs {
		refs[i] = j.Ref
		res, ok := lr.results[j.Ref]
		if !ok {
			res = algebra.InvokeResult{Rows: []value.Tuple{{value.NewReal(20)}}}
		}
		out[i] = res
	}
	lr.lists = append(lr.lists, refs)
	return out
}

// TestFanoutErrorIsFirstInInputOrder: when several jobs fail, the reported
// error is the failing job with the smallest input index, whatever order the
// invoker ran them in.
func TestFanoutErrorIsFirstInInputOrder(t *testing.T) {
	errA := errors.New("err-a")
	errB := errors.New("err-b")
	r := sensorRelation(2, "failA", "failB")
	bp, _ := r.Schema().FindBP("getTemperature", "")
	inv := &listRecorder{results: map[string]algebra.InvokeResult{"failA": {Err: errA}, "failB": {Err: errB}}}
	if _, err := algebra.Invoke(r, bp, inv); !errors.Is(err, errA) {
		t.Fatalf("got %v, want first-in-input-order error %v", err, errA)
	}
}

// TestInvokeBatchesPassiveFanout: the invocation operator calls its Invoker
// exactly once, with the whole work list in input order, and realizes the
// rows positionally.
func TestInvokeBatchesPassiveFanout(t *testing.T) {
	r := sensorRelation(5)
	bp, _ := r.Schema().FindBP("getTemperature", "")
	lr := &listRecorder{}
	out, err := algebra.Invoke(r, bp, lr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("Len = %d, want 5", out.Len())
	}
	if len(lr.lists) != 1 || len(lr.lists[0]) != 5 {
		t.Fatalf("work lists = %v, want one list of 5", lr.lists)
	}
	if lr.lists[0][0] != "ok000" || lr.lists[0][4] != "ok004" {
		t.Fatalf("work list not in input order: %v", lr.lists[0])
	}
}

// TestInvokeBatchErrorAborts: one job's error aborts the whole operator, and
// an absorbed failure does not.
func TestInvokeBatchErrorAborts(t *testing.T) {
	boom := errors.New("item 2 failed")
	r := sensorRelation(4)
	bp, _ := r.Schema().FindBP("getTemperature", "")
	inv := &listRecorder{results: map[string]algebra.InvokeResult{"ok002": {Err: boom}}}
	if _, err := algebra.Invoke(r, bp, inv); !errors.Is(err, boom) {
		t.Fatalf("job error not propagated: %v", err)
	}
	inv = &listRecorder{results: map[string]algebra.InvokeResult{"ok002": {Cause: boom}}}
	if !inv.results["ok002"].Absorbed() {
		t.Fatal("a result with a Cause and no Err must report Absorbed")
	}
	out, err := algebra.Invoke(r, bp, inv)
	if err != nil {
		t.Fatalf("absorbed failure aborted the operator: %v", err)
	}
	if out.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (the absorbed job contributes no rows)", out.Len())
	}
}
