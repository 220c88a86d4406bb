package relstore

// PlantRow stores the entry pk→val in the primary tree of the named table
// and indexKey→val in its first index, below the table codec: nothing is
// checked, counted or logged, so a test can put into a store a row that the
// codec would refuse, as a damaged page might hold it. The trees' roots
// reach the catalog with the next commit or Close.
func PlantRow(db *DB, table string, pk, indexKey, val []byte) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	if err := t.primary.Insert(pk, val); err != nil {
		return err
	}
	if err := t.seconds[0].Insert(indexKey, val); err != nil {
		return err
	}
	db.mu.Lock()
	db.dirty = true
	db.mu.Unlock()
	return nil
}
