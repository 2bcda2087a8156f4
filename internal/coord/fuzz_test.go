package coord

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
	"rollrec/internal/workload"
)

// blobApp's state is whatever snapshot it was last handed, so a snapshot
// round trip exercises the snapshot codec and not an application's.
type blobApp struct{ state []byte }

func (*blobApp) Start(workload.Ctx)                      {}
func (*blobApp) Handle(workload.Ctx, ids.ProcID, []byte) {}
func (a *blobApp) Snapshot() []byte                      { return a.state }
func (a *blobApp) Restore(b []byte) error                { a.state = b; return nil }
func (*blobApp) Digest() uint64                          { return 0 }
func (*blobApp) Done() bool                              { return true }

// blobProc is the part of a process the snapshot codec touches.
func blobProc(pad int) *Process {
	return &Process{
		par: Params{StatePad: pad}, n: 3, app: &blobApp{},
		dseqOut: make([]uint64, 3), expDseq: make([]uint64, 3),
	}
}

// FuzzDecodeSnapshot: decodeSnapshot never panics on an arbitrary (data,
// pad) image, and whatever it accepts is exactly what encodeLocalState and
// encodeSnapshotBlob write for the state and channel messages it restored.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, outSeq := range []uint64{0, 3} {
		for _, pad := range []int{0, 4 << 10} {
			p := blobProc(pad)
			p.app.(*blobApp).state = []byte("app-state")
			p.epoch, p.delivered, p.outSeq = 4, 17, outSeq
			p.dseqOut[1], p.expDseq[2] = 5, 6
			p.snap = p.encodeLocalState()
			p.recorded = [][]recordedMsg{nil, {{from: 1, ssn: 7, dseq: 2, payload: []byte("in-flight")}}, {{from: 2, ssn: 1, dseq: 1}}}
			img := p.encodeSnapshotBlob()
			f.Add(img.Data, img.Pad)
			f.Add(img.Data, img.Pad+1)
			f.Add(img.Data[:len(img.Data)/2], img.Pad)
		}
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 0, 0, 0}, -1)
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		p := blobProc(pad)
		rec, err := p.decodeSnapshot(storage.Image{Data: data, Pad: pad})
		if err != nil {
			return
		}
		// The epoch at capture is deliberately not restored (the rollback
		// epoch supersedes it); put it back to compare encodings.
		p.epoch = binary.LittleEndian.Uint32(data[4:])
		p.snap, p.recorded = p.encodeLocalState(), [][]recordedMsg{rec}
		if got := p.encodeSnapshotBlob(); got.Pad != pad || !bytes.Equal(got.Data, data) {
			t.Fatalf("accepted image does not re-encode to itself:\n in  %x + %d\n out %x + %d",
				data, pad, got.Data, got.Pad)
		}
	})
}
