package fbl

import (
	"bytes"
	"testing"

	"rollrec/internal/ids"
	"rollrec/internal/storage"
	"rollrec/internal/workload"
)

// blobApp's state is whatever snapshot it was last handed, so a checkpoint
// round trip exercises the checkpoint codec and not an application's.
type blobApp struct{ state []byte }

func (*blobApp) Start(workload.Ctx)                                   {}
func (*blobApp) Handle(workload.Ctx, ids.ProcID, storage.Image) error { return nil }
func (a *blobApp) Snapshot() []byte                                   { return a.state }
func (a *blobApp) Restore(b []byte) error                             { a.state = b; return nil }
func (*blobApp) Digest() uint64                                       { return 0 }
func (*blobApp) Done() bool                                           { return true }

func blobProc(pad int) *Process {
	par := testParams(2)
	par.App = func(ids.ProcID, int) workload.App { return &blobApp{} }
	par.StatePad = pad
	p := New(par)(nil).(*Process)
	p.Boot(newFakeEnv(0, 3), false)
	return p
}

// seedPads are the pads the decoder fuzzers seed a logged payload and
// StatePad with: none, a few, both sides of the length field's inline limit
// (1023), and past the 4 MiB maxListLen.
var seedPads = []int{0, 1, 3, 1022, 1023, 1024, 8 << 20}

// FuzzDecodeCheckpoint: decodeCheckpoint never panics on an arbitrary
// (data, pad) image, and whatever it accepts is exactly what
// encodeCheckpoint writes for the state it restored. Decode ∘ encode is the
// identity on what encodeCheckpoint does write, send-log windows with a
// pruned prefix included.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, outSeq := range []uint64{0, 3} {
		for _, pad := range []int{0, 4 << 10} {
			p := blobProc(pad)
			p.app.(*blobApp).state = []byte("app-state")
			p.Deliver(appFrame(1, 1, 7, 1))
			appCtx{p}.Send(1, storage.Image{Data: []byte("payload-a")})
			appCtx{p}.Send(1, storage.Image{Data: []byte("payload-b")})
			appCtx{p}.Send(2, storage.Image{})
			p.outSeq = outSeq
			img := p.encodeCheckpoint()
			f.Add(img.Data, img.Pad)
			f.Add(img.Data, img.Pad+1)
			f.Add(img.Data[:len(img.Data)/2], img.Pad)
		}
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{checkpointVersion}, -1)
	// Windows that no longer start at dseq 1: a pruned prefix, a log emptied
	// and appended to again (appended last: earlier seeds keep their numbers).
	pruned := goldenCheckpointState()
	img := pruned.encodeCheckpoint()
	f.Add(img.Data, img.Pad)
	pruned.pruneSendLog(1, 5)
	emptied := pruned.encodeCheckpoint()
	f.Add(emptied.Data, emptied.Pad)
	for _, img := range []storage.Image{img, emptied} {
		q := blobProc(img.Pad)
		if err := q.decodeCheckpoint(img); err != nil {
			f.Fatalf("decode of an encoded checkpoint: %v", err)
		}
		if got := q.encodeCheckpoint(); got.Pad != img.Pad || !bytes.Equal(got.Data, img.Data) {
			f.Fatalf("decode ∘ encode is not the identity:\n in  %x + %d\n out %x + %d", img.Data, img.Pad, got.Data, got.Pad)
		}
	}
	for _, pad := range seedPads {
		p := blobProc(pad)
		appCtx{p}.Send(1, storage.Image{Data: []byte("p"), Pad: pad})
		img := p.encodeCheckpoint()
		f.Add(img.Data, img.Pad)
		f.Add(img.Data, img.Pad-1)
	}
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		p := blobProc(0)
		if err := p.decodeCheckpoint(storage.Image{Data: data, Pad: pad}); err != nil {
			return
		}
		// The image's pad is StatePad and the logged payloads' pads:
		// StatePad is what is left of it once the send log is encoded.
		p.par.StatePad = pad - p.encodeCheckpoint().Pad
		if got := p.encodeCheckpoint(); got.Pad != pad || !bytes.Equal(got.Data, data) {
			t.Fatalf("accepted image does not re-encode to itself:\n in  %x + %d\n out %x + %d",
				data, pad, got.Data, got.Pad)
		}
	})
}
