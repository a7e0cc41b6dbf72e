package main

import (
	"sync/atomic"
	"time"

	"triggerman/internal/storage"
)

// countingDisk is an in-memory page store that counts and times every
// page read, page write and sync. It is passed through Options.Disk so
// the storage layer is measured from outside the program.
type countingDisk struct {
	storage.DiskManager
	reads, writes, syncs atomic.Int64
	busyNs               atomic.Int64
}

func newCountingDisk() *countingDisk {
	return &countingDisk{DiskManager: storage.NewMem()}
}

func (d *countingDisk) ReadPage(id storage.PageID, buf []byte) error {
	begin := time.Now()
	err := d.DiskManager.ReadPage(id, buf)
	d.busyNs.Add(int64(time.Since(begin)))
	d.reads.Add(1)
	return err
}

func (d *countingDisk) WritePage(id storage.PageID, buf []byte) error {
	begin := time.Now()
	err := d.DiskManager.WritePage(id, buf)
	d.busyNs.Add(int64(time.Since(begin)))
	d.writes.Add(1)
	return err
}

func (d *countingDisk) Sync() error {
	begin := time.Now()
	err := d.DiskManager.Sync()
	d.busyNs.Add(int64(time.Since(begin)))
	d.syncs.Add(1)
	return err
}

// diskCounts is a snapshot of a countingDisk.
type diskCounts struct {
	reads, writes, syncs int64
	busy                 time.Duration
}

func (d *countingDisk) snapshot() diskCounts {
	return diskCounts{d.reads.Load(), d.writes.Load(), d.syncs.Load(), time.Duration(d.busyNs.Load())}
}
