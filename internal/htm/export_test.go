package htm

// DrainPool drops every idle system, so the next Take builds a new one.
func DrainPool() {
	pool.Lock()
	defer pool.Unlock()
	pool.idle = nil
}

// IdleSystems returns the number of idle systems the pool holds.
func IdleSystems() int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.idle)
}
