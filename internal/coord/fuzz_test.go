package coord

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rollrec/internal/channel"
	"rollrec/internal/ids"
	"rollrec/internal/storage"
	"rollrec/internal/workload"
)

// blobApp's state is whatever snapshot it was last handed, so a snapshot
// round trip exercises the snapshot codec and not an application's.
type blobApp struct{ state []byte }

func (*blobApp) Start(workload.Ctx)                                   {}
func (*blobApp) Handle(workload.Ctx, ids.ProcID, storage.Image) error { return nil }
func (a *blobApp) Snapshot() []byte                                   { return a.state }
func (a *blobApp) Restore(b []byte) error                             { a.state = b; return nil }
func (*blobApp) Digest() uint64                                       { return 0 }
func (*blobApp) Done() bool                                           { return true }

// blobProc is the part of a process the snapshot codec touches.
func blobProc(pad int) *Process {
	return &Process{
		par: Params{StatePad: pad}, n: 3, app: &blobApp{},
		out: make(channel.Out, 3), in: channel.NewIn(3),
	}
}

// seedPads are the pads the decoder fuzzers seed a recorded message and
// StatePad with: none, a few, both sides of the length field's inline limit
// (1023), and past the 4 MiB maxListLen.
var seedPads = []int{0, 1, 3, 1022, 1023, 1024, 8 << 20}

// FuzzDecodeSnapshot: decodeSnapshot never panics on an arbitrary (data,
// pad) image, and whatever it accepts is exactly what encodeLocalState and
// encodeSnapshotBlob write for the state and channel messages it restored.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, outSeq := range []uint64{0, 3} {
		for _, pad := range []int{0, 4 << 10} {
			p := blobProc(pad)
			p.app.(*blobApp).state = []byte("app-state")
			p.epoch, p.delivered, p.outSeq = 4, 17, outSeq
			p.out[1], p.in.Exp[2] = 5, 6
			p.snap = p.encodeLocalState()
			p.recorded = [][]recordedMsg{nil, {{from: 1, ssn: 7, dseq: 2, payload: storage.Image{Data: []byte("in-flight"), Pad: 7}}}, {{from: 2, ssn: 1, dseq: 1}}}
			img := p.encodeSnapshotBlob()
			f.Add(img.Data, img.Pad)
			f.Add(img.Data, img.Pad+1)
			f.Add(img.Data[:len(img.Data)/2], img.Pad)
		}
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 0, 0, 0}, -1)
	for _, pad := range seedPads {
		p := blobProc(pad)
		p.snap = p.encodeLocalState()
		p.recorded = [][]recordedMsg{{{from: 1, ssn: 7, dseq: 2, payload: storage.Image{Data: []byte("m"), Pad: pad}}}}
		img := p.encodeSnapshotBlob()
		f.Add(img.Data, img.Pad)
		f.Add(img.Data, img.Pad-1)
	}
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		p := blobProc(0)
		rec, err := p.decodeSnapshot(storage.Image{Data: data, Pad: pad})
		if err != nil {
			return
		}
		// The epoch at capture is deliberately not restored (the rollback
		// epoch supersedes it); put it back to compare encodings. The image's
		// pad is StatePad and the recorded messages' pads: StatePad is what
		// is left of it once the messages are encoded.
		p.epoch = binary.LittleEndian.Uint32(data[4:])
		p.snap, p.recorded = p.encodeLocalState(), [][]recordedMsg{rec}
		p.par.StatePad = pad - p.encodeSnapshotBlob().Pad
		p.snap, p.recorded = p.encodeLocalState(), [][]recordedMsg{rec}
		if got := p.encodeSnapshotBlob(); got.Pad != pad || !bytes.Equal(got.Data, data) {
			t.Fatalf("accepted image does not re-encode to itself:\n in  %x + %d\n out %x + %d",
				data, pad, got.Data, got.Pad)
		}
	})
}
