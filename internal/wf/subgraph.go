package wf

// SoleLink reports whether jp feeds jc through exactly one dataset and
// returns that dataset ID. Vertical packing requires knowing the single
// dataset on the packed edge.
func SoleLink(w *Workflow, jp, jc *Job) (string, bool) {
	var link string
	count := 0
	for _, out := range jp.Outputs() {
		for _, in := range jc.Inputs() {
			if out == in {
				link = out
				count++
			}
		}
	}
	if count != 1 {
		return "", false
	}
	return link, true
}
