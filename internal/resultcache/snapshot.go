package resultcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Snapshot format: a warm-restart image of the cache, written on
// drain and loaded on boot.
//
//	magic   "pfpd-resultcache/v1\n"
//	count   uint32 (little-endian)
//	entries count × { keyHi u64, keyLo u64, valLen u32, val bytes }
//	check   uint64 — two-lane-collapsed FNV-1a over all entry bytes
//
// The checksum trails the entries, so a truncated file fails loudly;
// the count and per-value length bounds catch garbage before any
// allocation balloons. LoadSnapshot is all-or-nothing: a corrupt file
// leaves the cache exactly as it was (cold on boot), never partially
// filled — warmth is the only thing a snapshot can ever add.

const (
	snapshotMagic = "pfpd-resultcache/v1\n"
	// maxSnapshotValue bounds one entry's value during load; the
	// serving layer caps response bodies far below this, so anything
	// bigger is corruption, not data.
	maxSnapshotValue = 64 << 20
	// maxSnapshotCount bounds the declared entry count.
	maxSnapshotCount = 1 << 24
)

// fnvSum accumulates the checksum over entry bytes.
type fnvSum struct{ h uint64 }

func newFnvSum() fnvSum { return fnvSum{h: 14695981039346656037} }

func (s *fnvSum) write(p []byte) {
	h := s.h
	for _, c := range p {
		h = (h ^ uint64(c)) * 1099511628211
	}
	s.h = h
}

// Snapshot writes every cached entry to w, least-recently-used first,
// so loading replays them in recency order and the restored cache has
// the same eviction priorities. Concurrent reads/writes during the
// snapshot are safe; the image is a consistent per-shard view.
func (c *Cache) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	// Collect per shard under its lock; snapshot sizes are bounded by
	// the byte budget, so the copy is cheap relative to disk I/O.
	type kv struct {
		key Key
		val []byte
	}
	var all []kv
	c.c.Walk(func(k Key, v []byte) { all = append(all, kv{k, v}) })
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(all)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	sum := newFnvSum()
	var buf [20]byte
	for _, e := range all {
		binary.LittleEndian.PutUint64(buf[0:8], e.key.Hi)
		binary.LittleEndian.PutUint64(buf[8:16], e.key.Lo)
		binary.LittleEndian.PutUint32(buf[16:20], uint32(len(e.val)))
		sum.write(buf[:])
		sum.write(e.val)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		if _, err := bw.Write(e.val); err != nil {
			return err
		}
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], sum.h)
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSnapshot restores entries written by Snapshot. It validates the
// whole image — magic, bounds, and trailing checksum — before
// inserting anything, so a corrupt or truncated file returns an error
// and leaves the cache untouched. Entries are inserted in file order
// (LRU first), reproducing the saved recency order; entries beyond
// the current byte budget evict normally.
func (c *Cache) LoadSnapshot(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("resultcache: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("resultcache: not a snapshot (bad magic %q)", magic)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("resultcache: snapshot count: %w", err)
	}
	count := binary.LittleEndian.Uint32(hdr[:])
	if count > maxSnapshotCount {
		return fmt.Errorf("resultcache: snapshot declares %d entries (corrupt)", count)
	}
	type kv struct {
		key Key
		val []byte
	}
	all := make([]kv, 0, count)
	sum := newFnvSum()
	var buf [20]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("resultcache: snapshot entry %d: %w", i, err)
		}
		vlen := binary.LittleEndian.Uint32(buf[16:20])
		if vlen > maxSnapshotValue {
			return fmt.Errorf("resultcache: snapshot entry %d declares %d bytes (corrupt)", i, vlen)
		}
		val := make([]byte, vlen)
		if _, err := io.ReadFull(br, val); err != nil {
			return fmt.Errorf("resultcache: snapshot entry %d value: %w", i, err)
		}
		sum.write(buf[:])
		sum.write(val)
		all = append(all, kv{Key{
			Hi: binary.LittleEndian.Uint64(buf[0:8]),
			Lo: binary.LittleEndian.Uint64(buf[8:16]),
		}, val})
	}
	var trailer [8]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return fmt.Errorf("resultcache: snapshot checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(trailer[:]); got != sum.h {
		return fmt.Errorf("resultcache: snapshot checksum mismatch (%#x != %#x)", got, sum.h)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("resultcache: trailing data after snapshot")
	}
	for _, e := range all {
		c.Put(e.key, e.val)
	}
	return nil
}

// SaveFile writes a snapshot atomically: to a temp file in the same
// directory, then rename.
func (c *Cache) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile restores a snapshot from path. Like LoadSnapshot, failure
// leaves the cache untouched; callers log and continue cold.
func (c *Cache) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.LoadSnapshot(f)
}
