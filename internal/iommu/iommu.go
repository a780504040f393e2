// Package iommu models the IOMMU with BypassD's proposed extension:
// translating Virtual Block Addresses (VBAs) in device requests to
// device Logical Block Addresses by walking process page tables and
// interpreting File Table Entries (paper §3.5, §4.3).
//
// The latency model follows the paper's measurements (§6.2, Table 4,
// Fig. 5): a 345 ns PCIe round trip for the ATS exchange, ~183 ns for
// a page walk that misses the IOTLB, a small per-cacheline cost for
// requests needing many leaf entries (8 PTEs fit one cacheline), and
// a 550 ns floor on the total VBA translation delay. Per the paper,
// FTEs are not cached in the IOTLB by default (no temporal locality;
// avoids IOTLB pollution) — the CacheFTEs knob exists for the Fig. 8
// 350 ns ablation point.
package iommu

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config holds the IOMMU latency and caching parameters.
type Config struct {
	PCIeRoundTrip  sim.Time // ATS request/response bus time
	WalkLatency    sim.Time // page walk on IOTLB miss
	IOTLBLookup    sim.Time // IOTLB probe cost
	CachelineFetch sim.Time // each extra leaf cacheline beyond the first
	MultiStep      sim.Time // step observed going from 2 to 3 translations (Fig. 5)
	MinTranslation sim.Time // floor on total VBA translation time (§6.2)

	// CacheFTEs enables caching file table entries in the IOTLB
	// (off by default, per §4.3).
	CacheFTEs bool
	// IOTLBEntries bounds the IOTLB (FIFO eviction).
	IOTLBEntries int

	// PWCEntries bounds the per-PASID paging-structure cache: upper-
	// level walk results (resident leaf node + path permission) keyed
	// by VA>>21, FIFO eviction, 0 disables. Real IOMMUs amortize the
	// upper levels of repeated walks this way (the cost structure
	// §3.4/§6.2 assumes when pricing a walk at ~183 ns); the simulator
	// additionally uses the cached node to skip the host-side descent.
	PWCEntries int
	// PWCHitWalkLatency replaces WalkLatency for a request whose walks
	// were all served by the PWC (only the leaf level is fetched).
	// Negative means "same as WalkLatency", which keeps the latency
	// model — and every figure — identical to the pre-PWC simulator.
	PWCHitWalkLatency sim.Time
	// PWCMinTranslation replaces MinTranslation for PWC-hit-only
	// requests: the 550 ns floor is an end-to-end measurement that
	// includes a full walk, so modeling faster upper levels may lower
	// it. Negative means "same as MinTranslation" (the default).
	PWCMinTranslation sim.Time

	// FixedVBALatency, when >= 0, overrides the computed total VBA
	// translation latency — used by the Fig. 8 sensitivity sweep
	// exactly like the paper's injected nop() delay. A value of 0
	// means "no translation delay"; negative means "compute".
	FixedVBALatency sim.Time
}

// DefaultConfig returns the calibration from the paper.
func DefaultConfig() Config {
	return Config{
		PCIeRoundTrip:   345 * sim.Nanosecond,
		WalkLatency:     183 * sim.Nanosecond,
		IOTLBLookup:     7 * sim.Nanosecond,
		CachelineFetch:  10 * sim.Nanosecond,
		MultiStep:       17 * sim.Nanosecond,
		MinTranslation:  550 * sim.Nanosecond,
		IOTLBEntries:    256,
		FixedVBALatency: -1,

		// The PWC holds upper-level paths but charges nothing extra by
		// default: with the sentinel latencies below, figures are
		// byte-identical to the pre-PWC model (DESIGN.md §10).
		PWCEntries:        32,
		PWCHitWalkLatency: -1,
		PWCMinTranslation: -1,
	}
}

// Request is an ATS translation request from a device.
type Request struct {
	PASID uint32
	DevID uint8 // requesting device, checked against FTE DevID
	VBA   uint64
	Bytes int64
	Write bool
}

// Status is the outcome of a translation.
type Status int

// Translation outcomes.
const (
	OK Status = iota
	// Fault: no valid FTE for some page — the file was never mapped,
	// the mapping was revoked, or the entry is not a file table entry.
	Fault
	// Denied: a valid FTE exists but the permission or device-ID
	// check failed.
	Denied
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Fault:
		return "fault"
	case Denied:
		return "denied"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Segment is one contiguous run of device sectors in a translation
// response; the IOMMU coalesces adjacent runs (paper §4.3).
type Segment struct {
	Sector  int64
	Sectors int64
}

// Result is a completed translation.
type Result struct {
	Status   Status
	Segments []Segment
	// Latency is the total VBA translation delay the device observes,
	// including the PCIe round trip. The device serializes this before
	// media access for reads and overlaps it for writes.
	Latency sim.Time
	// Walks is the number of page walks performed (stats/tests).
	Walks int
}

type tlbKey struct {
	pasid uint32
	vpn   uint64
}

// tlbVal is a cached translation plus the insertion sequence number
// that ties it to its FIFO record. Invalidation deletes map entries
// without editing the FIFO; a FIFO record whose seq no longer matches
// the live entry (or whose key is gone) is a ghost and is skipped at
// eviction time.
type tlbVal struct {
	e   pagetable.Entry
	seq uint64
}

// tlbRec is one FIFO eviction-order record.
type tlbRec struct {
	k   tlbKey
	seq uint64
}

// pwcEntry caches the result of the three upper walk levels for one
// 2 MiB region: the resident leaf node and the AND of the R/W bits on
// the path to it.
type pwcEntry struct {
	leaf  *pagetable.Node
	effRW bool
}

// pwcCache is one PASID's paging-structure cache. fifo holds exactly
// the keys of entries in insertion order (no ghosts): the cache is
// small (tens of entries) so precise removal is a short memmove.
type pwcCache struct {
	entries map[uint64]pwcEntry
	fifo    []uint64
}

// IOMMU is the translation agent. All methods are pure state
// transitions; time is charged by callers using Result.Latency so the
// device model controls serialization vs. overlap.
type IOMMU struct {
	cfg     Config
	pasids  map[uint32]*pagetable.Table
	regions []*regionMap // §5.1 extent-table mappings

	iotlb map[tlbKey]tlbVal
	// tlbByPasid indexes live IOTLB keys by PASID so InvalidateRange
	// and UnregisterPASID touch only the entries they actually drop
	// instead of scanning the whole TLB.
	tlbByPasid map[uint32]map[uint64]struct{}
	// tlbFIFO[tlbHead:] is the eviction queue, oldest first. Evicting
	// advances tlbHead instead of reslicing so the backing array is
	// reused; the dead prefix is compacted once it reaches the IOTLB
	// capacity and ghost records (see tlbVal) are compacted away once
	// they outnumber the capacity, keeping eviction O(1) amortized and
	// the array bounded.
	tlbFIFO   []tlbRec
	tlbHead   int
	tlbGhosts int
	tlbSeq    uint64
	tlbHits   int64
	tlbMisses int64
	faults    int64
	denials   int64

	// pwc is the per-PASID paging-structure cache (Config.PWCEntries).
	pwc       map[uint32]*pwcCache
	pwcHits   int64
	pwcMisses int64

	inj *faults.Injector // machine fault plane; nil = inert

	// Metrics handles, resolved once by SetEnv; nil (inert) when the
	// run has no registry.
	mHits, mMisses       *metrics.Counter
	mFaults, mDenials    *metrics.Counter
	mWalks               *metrics.Counter
	mPWCHits, mPWCMisses *metrics.Counter
}

// New returns an IOMMU with the given configuration.
func New(cfg Config) *IOMMU {
	return &IOMMU{
		cfg:        cfg,
		pasids:     make(map[uint32]*pagetable.Table),
		iotlb:      make(map[tlbKey]tlbVal),
		tlbByPasid: make(map[uint32]map[uint64]struct{}),
		pwc:        make(map[uint32]*pwcCache),
	}
}

// Counter helpers keep the long-standing int64 tallies and the metrics
// plane in lockstep from every site that records an event.
func (u *IOMMU) countTLBHit()  { u.tlbHits++; u.mHits.Inc() }
func (u *IOMMU) countTLBMiss() { u.tlbMisses++; u.mMisses.Inc() }
func (u *IOMMU) countFault()   { u.faults++; u.mFaults.Inc() }
func (u *IOMMU) countDenial()  { u.denials++; u.mDenials.Inc() }

// Config returns the active configuration.
func (u *IOMMU) Config() Config { return u.cfg }

// SetFixedVBALatency adjusts the Fig. 8 override at runtime.
func (u *IOMMU) SetFixedVBALatency(d sim.Time) { u.cfg.FixedVBALatency = d }

// SetCacheFTEs toggles FTE caching in the IOTLB (ablation; paper
// §4.3 argues it is unnecessary).
func (u *IOMMU) SetCacheFTEs(on bool) { u.cfg.CacheFTEs = on }

// SetPWCConfig adjusts the paging-structure-cache model at runtime
// (the Fig. 8-style sensitivity sweeps). entries <= 0 disables the
// cache; hitWalk and minTranslation follow the Config sentinel rule
// (negative = same as WalkLatency / MinTranslation). Cached paths are
// dropped so a sweep cell starts cold.
func (u *IOMMU) SetPWCConfig(entries int, hitWalk, minTranslation sim.Time) {
	u.cfg.PWCEntries = entries
	u.cfg.PWCHitWalkLatency = hitWalk
	u.cfg.PWCMinTranslation = minTranslation
	for p := range u.pwc {
		delete(u.pwc, p)
	}
}

// SetEnv attaches the machine's fault plane and resolves the IOMMU's
// metric series on reg (nil handles when reg is nil).
func (u *IOMMU) SetEnv(inj *faults.Injector, reg *metrics.Registry) {
	u.inj = inj
	u.mHits = reg.Counter("iommu_iotlb_total", "event", "hit")
	u.mMisses = reg.Counter("iommu_iotlb_total", "event", "miss")
	u.mFaults = reg.Counter("iommu_translations_total", "result", "fault")
	u.mDenials = reg.Counter("iommu_translations_total", "result", "denied")
	u.mWalks = reg.Counter("iommu_walks_total")
	u.mPWCHits = reg.Counter("iommu_pwc_total", "event", "hit")
	u.mPWCMisses = reg.Counter("iommu_pwc_total", "event", "miss")
}

// RegisterPASID binds a process page table to a PASID, as the kernel
// driver does when creating user queue pairs (paper §3.3).
func (u *IOMMU) RegisterPASID(pasid uint32, t *pagetable.Table) {
	u.pasids[pasid] = t
}

// UnregisterPASID removes a binding and drops its cached translations
// and extent-table mappings. Work is proportional to the PASID's own
// cached entries, not the whole IOTLB, thanks to the per-PASID index.
func (u *IOMMU) UnregisterPASID(pasid uint32) {
	delete(u.pasids, pasid)
	if set := u.tlbByPasid[pasid]; set != nil {
		for vpn := range set {
			delete(u.iotlb, tlbKey{pasid, vpn})
			u.tlbGhosts++
		}
		delete(u.tlbByPasid, pasid)
		u.tlbMaybeCompact()
	}
	delete(u.pwc, pasid)
	kept := u.regions[:0]
	for _, r := range u.regions {
		if r.pasid != pasid {
			kept = append(kept, r)
		}
	}
	u.regions = kept
}

// InvalidateRange drops cached translations covering [va, va+bytes)
// for pasid — both IOTLB leaf entries and the PWC's upper-level paths.
// The kernel issues this when detaching FTEs (revocation) and when
// (re)attaching fragments, exactly as real IOMMUs require explicit
// paging-structure-cache invalidation after page-table updates. The
// byte range is widened to page granularity (lo rounds down, hi up) so
// a partial-page range still drops every overlapped translation. Cost
// is O(min(pages, cached entries)) for the PASID, not O(TLB).
func (u *IOMMU) InvalidateRange(pasid uint32, va uint64, bytes int64) {
	lo := va / pagetable.PageSize
	hi := (va + uint64(bytes) + pagetable.PageSize - 1) / pagetable.PageSize
	if set := u.tlbByPasid[pasid]; set != nil {
		if uint64(len(set)) <= hi-lo {
			for vpn := range set {
				if vpn >= lo && vpn < hi {
					delete(u.iotlb, tlbKey{pasid, vpn})
					delete(set, vpn)
					u.tlbGhosts++
				}
			}
		} else {
			for vpn := lo; vpn < hi; vpn++ {
				if _, ok := set[vpn]; ok {
					delete(u.iotlb, tlbKey{pasid, vpn})
					delete(set, vpn)
					u.tlbGhosts++
				}
			}
		}
		if len(set) == 0 {
			delete(u.tlbByPasid, pasid)
		}
		u.tlbMaybeCompact()
	}
	u.pwcInvalidateRange(pasid, va, bytes)
}

// flushTranslationCaches empties the IOTLB and every PWC, as after a
// global shootdown (the invalidation-storm fault).
func (u *IOMMU) flushTranslationCaches() {
	for k := range u.iotlb {
		delete(u.iotlb, k)
	}
	for p := range u.tlbByPasid {
		delete(u.tlbByPasid, p)
	}
	for i := range u.tlbFIFO {
		u.tlbFIFO[i] = tlbRec{}
	}
	u.tlbFIFO = u.tlbFIFO[:0]
	u.tlbHead = 0
	u.tlbGhosts = 0
	for p := range u.pwc {
		delete(u.pwc, p)
	}
}

// tlbMaybeCompact rebuilds the FIFO without dead records once the dead
// prefix or the ghost population reaches the IOTLB capacity, bounding
// the backing array at O(capacity).
func (u *IOMMU) tlbMaybeCompact() {
	cap := u.cfg.IOTLBEntries
	if cap <= 0 || (u.tlbHead < cap && u.tlbGhosts <= cap) {
		return
	}
	u.tlbCompact()
}

func (u *IOMMU) tlbCompact() {
	kept := u.tlbFIFO[:0]
	for _, rec := range u.tlbFIFO[u.tlbHead:] {
		if v, ok := u.iotlb[rec.k]; ok && v.seq == rec.seq {
			kept = append(kept, rec)
		}
	}
	for i := len(kept); i < len(u.tlbFIFO); i++ {
		u.tlbFIFO[i] = tlbRec{}
	}
	u.tlbFIFO = kept
	u.tlbHead = 0
	u.tlbGhosts = 0
}

func (u *IOMMU) tlbInsert(k tlbKey, e pagetable.Entry) {
	if u.cfg.IOTLBEntries <= 0 {
		return
	}
	// Evict by FIFO order until there is room, skipping ghost records
	// left behind by invalidation (their live entry is already gone).
	for len(u.iotlb) >= u.cfg.IOTLBEntries {
		rec := u.tlbFIFO[u.tlbHead]
		u.tlbFIFO[u.tlbHead] = tlbRec{}
		u.tlbHead++
		if v, ok := u.iotlb[rec.k]; ok && v.seq == rec.seq {
			delete(u.iotlb, rec.k)
			if set := u.tlbByPasid[rec.k.pasid]; set != nil {
				delete(set, rec.k.vpn)
				if len(set) == 0 {
					delete(u.tlbByPasid, rec.k.pasid)
				}
			}
		} else {
			u.tlbGhosts--
		}
		if u.tlbHead >= u.cfg.IOTLBEntries {
			u.tlbCompact()
		}
	}
	u.tlbSeq++
	u.iotlb[k] = tlbVal{e: e, seq: u.tlbSeq}
	u.tlbFIFO = append(u.tlbFIFO, tlbRec{k: k, seq: u.tlbSeq})
	set := u.tlbByPasid[k.pasid]
	if set == nil {
		set = make(map[uint64]struct{})
		u.tlbByPasid[k.pasid] = set
	}
	set[k.vpn] = struct{}{}
}

// pwcLookup resolves the leaf node covering region (va>>21) for pasid,
// consulting the paging-structure cache first. fromPWC reports whether
// the upper levels were served from the cache; a miss performs the
// host-side descent and caches a successful path. Failed descents are
// not negatively cached, so attaching a brand-new region needs no
// invalidation — only updates to an existing path do.
func (u *IOMMU) pwcLookup(table *pagetable.Table, pasid uint32, region uint64) (leaf *pagetable.Node, effRW bool, fromPWC, ok bool) {
	if u.cfg.PWCEntries > 0 {
		if c := u.pwc[pasid]; c != nil {
			if e, hit := c.entries[region]; hit {
				u.pwcHits++
				u.mPWCHits.Inc()
				return e.leaf, e.effRW, true, true
			}
		}
		u.pwcMisses++
		u.mPWCMisses.Inc()
	}
	leaf, effRW, _, ok = table.LeafFor(region * pagetable.PMDSpan)
	if !ok {
		return nil, false, false, false
	}
	if u.cfg.PWCEntries > 0 {
		u.pwcInsert(pasid, region, leaf, effRW)
	}
	return leaf, effRW, false, true
}

func (u *IOMMU) pwcInsert(pasid uint32, region uint64, leaf *pagetable.Node, effRW bool) {
	c := u.pwc[pasid]
	if c == nil {
		c = &pwcCache{entries: make(map[uint64]pwcEntry)}
		u.pwc[pasid] = c
	}
	if _, ok := c.entries[region]; ok {
		c.entries[region] = pwcEntry{leaf: leaf, effRW: effRW}
		return
	}
	for len(c.entries) >= u.cfg.PWCEntries {
		old := c.fifo[0]
		copy(c.fifo, c.fifo[1:])
		c.fifo = c.fifo[:len(c.fifo)-1]
		delete(c.entries, old)
	}
	c.entries[region] = pwcEntry{leaf: leaf, effRW: effRW}
	c.fifo = append(c.fifo, region)
}

func (c *pwcCache) remove(region uint64) {
	if _, ok := c.entries[region]; !ok {
		return
	}
	delete(c.entries, region)
	for i, r := range c.fifo {
		if r == region {
			copy(c.fifo[i:], c.fifo[i+1:])
			c.fifo = c.fifo[:len(c.fifo)-1]
			break
		}
	}
}

// pwcInvalidateRange drops cached upper-level paths for every 2 MiB
// region overlapping [va, va+bytes).
func (u *IOMMU) pwcInvalidateRange(pasid uint32, va uint64, bytes int64) {
	c := u.pwc[pasid]
	if c == nil || len(c.entries) == 0 {
		return
	}
	lo := va / pagetable.PMDSpan
	hi := (va + uint64(bytes) + pagetable.PMDSpan - 1) / pagetable.PMDSpan
	if hi-lo > uint64(len(c.entries)) {
		// Wide range: scan the fifo (== the key set) back to front so
		// removals never disturb the indexes still to visit.
		for i := len(c.fifo) - 1; i >= 0; i-- {
			if r := c.fifo[i]; r >= lo && r < hi {
				c.remove(r)
			}
		}
	} else {
		for r := lo; r < hi; r++ {
			c.remove(r)
		}
	}
}

// Translate resolves a VBA request to device sectors, enforcing the
// FT, DevID and R/W checks. It never touches media. Extent-table
// mappings (§5.1 enhancement) take precedence over page-table walks.
func (u *IOMMU) Translate(req Request) Result {
	return u.TranslateInto(req, nil)
}

// TranslateInto is Translate with a caller-supplied segment buffer:
// the result's Segments reuse segs' backing array (appended from
// segs[:0]), letting hot callers such as the device model avoid a
// per-request allocation. Pass nil to allocate fresh.
func (u *IOMMU) TranslateInto(req Request, segs []Segment) Result {
	if u.inj != nil {
		if u.inj.Fire(faults.SiteIOMMUInvalidate) {
			// Invalidation storm: every cached translation drops, as
			// after a global TLB shootdown; subsequent requests walk.
			u.flushTranslationCaches()
		}
		var extra sim.Time
		if dl, ok := u.inj.FireDelay(faults.SiteIOMMUATSDelay); ok {
			if dl == 0 {
				dl = 2 * sim.Microsecond
			}
			extra = dl // slow ATS completion on the PCIe fabric
		}
		if u.inj.Fire(faults.SiteIOMMUFault) {
			// Spurious translation fault: the device sees the same
			// response as a revocation and the submitter must
			// refault/refmap (paper §3.6's recovery path).
			u.countFault()
			return Result{Status: Fault, Latency: u.latency(0, 0, 0, 1) + extra}
		}
		r := u.translateInto(req, segs)
		r.Latency += extra
		return r
	}
	return u.translateInto(req, segs)
}

// translateInto is the injection-free translation path. It is a fused
// single pass: the page-table descent happens once per 2 MiB leaf node
// (served by the PWC when warm), entries stream out of the resident
// node, and LBA-contiguity coalescing builds the segment list in the
// same loop — an N-page request costs ~N/512 descents, not N.
func (u *IOMMU) translateInto(req Request, segs []Segment) Result {
	segs = segs[:0]
	if r := u.regionFor(req.PASID, req.VBA); r != nil {
		return u.translateRegion(r, req, segs)
	}
	table, ok := u.pasids[req.PASID]
	if !ok {
		u.countFault()
		return Result{Status: Fault, Latency: u.latency(0, 0, 0, 1)}
	}
	if req.Bytes <= 0 {
		return Result{Status: Fault, Latency: u.latency(0, 0, 0, 0)}
	}

	firstPage := req.VBA / pagetable.PageSize
	lastPage := (req.VBA + uint64(req.Bytes) - 1) / pagetable.PageSize
	nPages := int(lastPage - firstPage + 1)

	// walks counts per-page leaf loads (the paper's unit for Fig. 5
	// accounting: eight leaf entries per cacheline); fullWalks counts
	// host descents that the PWC could not serve.
	walks, fullWalks, hits := 0, 0, 0
	remaining := req.Bytes
	off := req.VBA % pagetable.PageSize
	if off%storage.SectorSize != 0 || req.Bytes%storage.SectorSize != 0 {
		return Result{Status: Fault, Latency: u.latency(0, 0, 0, 0)}
	}

	// Resident-leaf state, valid while pg stays in leafRegion.
	var leaf *pagetable.Node
	var leafRW, leafOK bool
	leafRegion := ^uint64(0)

	for pg := firstPage; pg <= lastPage; pg++ {
		var entry pagetable.Entry
		var effRW bool
		inTLB := false
		if u.cfg.CacheFTEs {
			// FTEs are only looked up in the IOTLB when caching is on
			// (paper §4.3 keeps them out by default); with the cache
			// off the probe is skipped entirely and TLBStats stays 0/0.
			var cached tlbVal
			if cached, inTLB = u.iotlb[tlbKey{req.PASID, pg}]; inTLB {
				u.countTLBHit()
				hits++
				entry = cached.e
				effRW = cached.e.RW()
			}
		}
		if !inTLB {
			walks++
			u.mWalks.Inc()
			if u.cfg.CacheFTEs {
				u.countTLBMiss()
			}
			if region := pg / pagetable.EntriesPer; region != leafRegion {
				leafRegion = region
				var fromPWC bool
				leaf, leafRW, fromPWC, leafOK = u.pwcLookup(table, req.PASID, region)
				if !fromPWC {
					fullWalks++
				}
			}
			found := false
			if leafOK {
				if e := leaf.Entry(int(pg % pagetable.EntriesPer)); e.Present() {
					entry = e
					effRW = leafRW && e.RW()
					found = true
				}
			}
			if !found || !entry.FT() {
				u.countFault()
				return Result{Status: Fault, Latency: u.latency(walks, fullWalks, hits, nPages), Walks: walks}
			}
			if u.cfg.CacheFTEs {
				// Encode the effective permission into the cached copy.
				c := entry
				if !effRW {
					c &^= pagetable.FlagRW
				}
				u.tlbInsert(tlbKey{req.PASID, pg}, c)
			}
		}
		if entry.DevID() != req.DevID {
			u.countDenial()
			return Result{Status: Denied, Latency: u.latency(walks, fullWalks, hits, nPages), Walks: walks}
		}
		if req.Write && !effRW {
			u.countDenial()
			return Result{Status: Denied, Latency: u.latency(walks, fullWalks, hits, nPages), Walks: walks}
		}

		inPage := int64(pagetable.PageSize) - int64(off)
		if inPage > remaining {
			inPage = remaining
		}
		sector := entry.LBA() + int64(off)/storage.SectorSize
		sectors := inPage / storage.SectorSize
		if n := len(segs); n > 0 && segs[n-1].Sector+segs[n-1].Sectors == sector {
			segs[n-1].Sectors += sectors // coalesce
		} else {
			segs = append(segs, Segment{Sector: sector, Sectors: sectors})
		}
		remaining -= inPage
		off = 0
	}
	return Result{
		Status:   OK,
		Segments: segs,
		Latency:  u.latency(walks, fullWalks, hits, nPages),
		Walks:    walks,
	}
}

// latency computes the total VBA translation delay for a request that
// performed the given number of per-page walks (fullWalks of which
// needed a full host descent; the rest were PWC-assisted) and IOTLB
// hits across nPages page translations. With the default sentinel
// config (PWCHitWalkLatency/PWCMinTranslation < 0) the PWC terms
// collapse to the classic model and the output is bit-identical to the
// pre-PWC simulator.
func (u *IOMMU) latency(walks, fullWalks, hits, nPages int) sim.Time {
	if u.cfg.FixedVBALatency >= 0 {
		return u.cfg.FixedVBALatency
	}
	d := u.cfg.PCIeRoundTrip
	if hits > 0 {
		d += u.cfg.IOTLBLookup
	}
	if walks > 0 {
		wl, floor := u.cfg.WalkLatency, u.cfg.MinTranslation
		if fullWalks == 0 {
			// Every upper-level path came out of the paging-structure
			// cache; only leaf entries were fetched.
			if u.cfg.PWCHitWalkLatency >= 0 {
				wl = u.cfg.PWCHitWalkLatency
			}
			if u.cfg.PWCMinTranslation >= 0 {
				floor = u.cfg.PWCMinTranslation
			}
		}
		d += wl
		if nPages >= 3 {
			d += u.cfg.MultiStep
		}
		// Eight leaf entries share a cacheline; each extra line costs
		// one more fetch (Fig. 5 flattens because of this).
		lines := (walks + 7) / 8
		if lines > 1 {
			d += sim.Time(lines-1) * u.cfg.CachelineFetch
		}
		if d < floor {
			d = floor
		}
	}
	return d
}

// WalkOverhead reports the IOMMU-internal translation cost (excluding
// the PCIe round trip and the floor) for a single ATS request that
// needs n page translations — the quantity plotted in Fig. 5.
func (u *IOMMU) WalkOverhead(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	d := u.cfg.WalkLatency
	if n >= 3 {
		d += u.cfg.MultiStep
	}
	if lines := (n + 7) / 8; lines > 1 {
		d += sim.Time(lines-1) * u.cfg.CachelineFetch
	}
	return d
}

// TLBStats reports IOTLB hits and misses.
func (u *IOMMU) TLBStats() (hits, misses int64) { return u.tlbHits, u.tlbMisses }

// PWCStats reports paging-structure-cache hits and misses (a miss is
// a host-side root→leaf descent).
func (u *IOMMU) PWCStats() (hits, misses int64) { return u.pwcHits, u.pwcMisses }

// FaultStats reports translation faults and permission denials.
func (u *IOMMU) FaultStats() (faults, denials int64) { return u.faults, u.denials }
