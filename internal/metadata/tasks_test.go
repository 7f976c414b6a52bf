package metadata

import (
	"errors"
	"testing"

	"ecstore/internal/model"
)

func taskRec(id string, state model.TaskState) *model.TaskRecord {
	return &model.TaskRecord{
		ID:           id,
		Type:         model.TaskTypeScrubSite,
		Site:         3,
		Priority:     model.PriorityScrub,
		State:        state,
		Cursor:       "blk-007.2",
		CreatedNanos: 1000,
		UpdatedNanos: 2000,
	}
}

func TestTaskStoreCRUD(t *testing.T) {
	c := NewCatalog(sites(4))
	if err := c.PutTask(taskRec("t2", model.TaskPending)); err != nil {
		t.Fatal(err)
	}
	if err := c.PutTask(taskRec("t1", model.TaskRunning)); err != nil {
		t.Fatal(err)
	}
	if err := c.PutTask(&model.TaskRecord{}); !errors.Is(err, ErrInvalidTask) {
		t.Fatalf("empty record err = %v", err)
	}

	got := c.ListTasks()
	if len(got) != 2 || got[0].ID != "t1" || got[1].ID != "t2" {
		t.Fatalf("ListTasks = %v", got)
	}
	// Records are copies: mutating a listing must not touch the store.
	got[0].Cursor = "mutated"
	if c.ListTasks()[0].Cursor != "blk-007.2" {
		t.Fatal("ListTasks leaked internal state")
	}

	// Upsert replaces by ID.
	upd := taskRec("t1", model.TaskDone)
	upd.Attempts = 3
	if err := c.PutTask(upd); err != nil {
		t.Fatal(err)
	}
	if got := c.ListTasks(); len(got) != 2 || got[0].State != model.TaskDone || got[0].Attempts != 3 {
		t.Fatalf("after upsert = %+v", got[0])
	}

	if err := c.DeleteTask("t1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteTask("ghost"); err != nil {
		t.Fatal(err)
	}
	if got := c.ListTasks(); len(got) != 1 || got[0].ID != "t2" {
		t.Fatalf("after delete = %v", got)
	}
}

func TestSiteInfos(t *testing.T) {
	c := NewCatalog(sites(3))
	if err := c.SetSiteInfo(model.SiteInfo{ID: 1, Zone: "z0", State: model.SiteDraining}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSiteInfo(model.SiteInfo{ID: 99, Zone: "z9"}); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("unknown site err = %v", err)
	}
	infos := c.SiteInfos()
	if len(infos) != 3 {
		t.Fatalf("SiteInfos = %v", infos)
	}
	if infos[1].Zone != "z0" || infos[1].State != model.SiteDraining {
		t.Fatalf("site 1 info = %+v", infos[1])
	}
	// Unconfigured sites read as zone-less active.
	if infos[2].Zone != "" || infos[2].State != model.SiteActive {
		t.Fatalf("site 2 info = %+v", infos[2])
	}
}

func TestRPCTasksAndSiteInfo(t *testing.T) {
	catalog := NewCatalog(sites(4))
	client, cleanup := startMetadataRPC(t, catalog)
	defer cleanup()

	rec := taskRec("move-1", model.TaskPending)
	rec.Type = model.TaskTypeMove
	rec.Block = "blk"
	rec.Chunk = 2
	rec.Dest = 3
	rec.LastError = "previous: timeout"
	if err := client.PutTask(rec); err != nil {
		t.Fatal(err)
	}
	got := client.ListTasks()
	if len(got) != 1 || *got[0] != *rec {
		t.Fatalf("ListTasks over RPC = %+v, want %+v", got, rec)
	}
	if err := client.DeleteTask("move-1"); err != nil {
		t.Fatal(err)
	}
	if got := client.ListTasks(); len(got) != 0 {
		t.Fatalf("after RPC delete = %+v", got)
	}

	if err := client.SetSiteInfo(model.SiteInfo{ID: 1, Zone: "z1", State: model.SiteDecommissioned}); err != nil {
		t.Fatal(err)
	}
	infos := client.SiteInfos()
	if len(infos) != 4 || infos[1].Zone != "z1" || infos[1].State != model.SiteDecommissioned {
		t.Fatalf("SiteInfos over RPC = %+v", infos)
	}
	if err := client.SetSiteInfo(model.SiteInfo{ID: 42}); err == nil {
		t.Fatal("unknown site over RPC should fail")
	}
}
