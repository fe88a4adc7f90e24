package core

// PinnedRead is empty: Store.ReadPinned never returns one. The type stays
// only because bench/ names it, and leaves with ROADMAP.md item 1(f).
type PinnedRead struct{}

// ReadPinned always declines: ReadAt is the one read path. It stays only
// because bench/ overrides it on appliance.BlockStore, and leaves with
// ROADMAP.md item 1(f).
func (s *Store) ReadPinned(server, volume, n int, off uint64) *PinnedRead { return nil }
