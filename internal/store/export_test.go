package store

// SetOrder makes ord the dictionary's last built term order, as if Order
// had last run when the dictionary held len(ord)-1 terms (none for nil), so
// a benchmark can time the same build or growth step over and over.
func (d *Dictionary) SetOrder(ord []uint32) {
	d.ordMu.Lock()
	defer d.ordMu.Unlock()
	d.ord = ord
}
