// Package video provides deterministic synthetic test video. The mRTS
// experiments need input whose content changes over time — moving objects,
// camera-noise, scene cuts — because the paper's run-time effects (Fig. 2:
// per-frame variation of kernel execution counts) are driven by input-data
// properties. A pseudo-random but fully seeded generator replaces the
// paper's (unavailable) video test sequences.
package video

import "fmt"

// Frame is a single 4:2:0 picture (8-bit samples, row-major). Cb and Cr
// are at half resolution in both dimensions; frames created by NewFrame
// carry neutral (128) chroma.
type Frame struct {
	W, H int
	Y    []uint8
	Cb   []uint8
	Cr   []uint8
}

// NewFrame allocates a black frame with neutral chroma.
func NewFrame(w, h int) *Frame {
	f := &Frame{W: w, H: h, Y: make([]uint8, w*h)}
	cw, ch := f.CW(), f.CH()
	f.Cb = make([]uint8, cw*ch)
	f.Cr = make([]uint8, cw*ch)
	for i := range f.Cb {
		f.Cb[i] = 128
		f.Cr[i] = 128
	}
	return f
}

// At returns the sample at (x, y); coordinates are clamped to the frame,
// mirroring H.264 edge extension.
func (f *Frame) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= f.W {
		x = f.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= f.H {
		y = f.H - 1
	}
	return f.Y[y*f.W+x]
}

// Set writes the sample at (x, y); out-of-frame writes are ignored.
func (f *Frame) Set(x, y int, v uint8) {
	if x < 0 || x >= f.W || y < 0 || y >= f.H {
		return
	}
	f.Y[y*f.W+x] = v
}

// Clone returns a deep copy.
func (f *Frame) Clone() *Frame {
	c := NewFrame(f.W, f.H)
	copy(c.Y, f.Y)
	copy(c.Cb, f.Cb)
	copy(c.Cr, f.Cr)
	return c
}

// RNG is a small deterministic generator (splitmix64) so traces are
// reproducible across platforms without math/rand version drift.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// object is a moving bright rectangle with its own hue.
type object struct {
	x, y   float64
	vx, vy float64
	w, h   int
	level  uint8
	cb, cr uint8
}

// Options configure the generator.
type Options struct {
	// Objects is the number of moving rectangles (default 4).
	Objects int
	// Noise is the peak amplitude of per-pixel noise (default 6).
	Noise int
	// SceneCuts lists frame numbers at which the scene changes
	// completely (new background, new objects).
	SceneCuts []int
	// Speed scales object motion in pixels/frame (default 2).
	Speed float64
}

// Canonical returns the options with every default applied, for
// content-addressed cache keys.
func (o Options) Canonical() Options {
	o.defaults()
	return o
}

func (o *Options) defaults() {
	if o.Objects == 0 {
		o.Objects = 4
	}
	if o.Noise == 0 {
		o.Noise = 6
	}
	if o.Speed == 0 {
		o.Speed = 2
	}
}

// Generator produces a deterministic frame sequence. Every scene (the
// stretch between two cuts) has its own regime: number and speed of moving
// objects and background texture amplitude, so kernel execution counts
// change sustainably at scene cuts — the run-time variation the mRTS
// experiments rely on (paper Fig. 2).
type Generator struct {
	w, h    int
	rng     *RNG
	opts    Options
	objects []object
	bgBase  uint8
	bgSlope int
	texAmp  int
	bg      []uint8 // the scene's background luma, rendered once per scene
	frame   int
	cuts    map[int]bool
}

// NewGenerator creates a generator for w x h frames.
func NewGenerator(w, h int, seed uint64, opts Options) (*Generator, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("video: invalid frame size %dx%d", w, h)
	}
	opts.defaults()
	g := &Generator{w: w, h: h, rng: NewRNG(seed), opts: opts, cuts: map[int]bool{}}
	for _, c := range opts.SceneCuts {
		g.cuts[c] = true
	}
	g.newScene()
	return g, nil
}

// FrameNo returns the index of the next frame Next will produce.
func (g *Generator) FrameNo() int { return g.frame }

func (g *Generator) newScene() {
	g.bgBase = uint8(40 + g.rng.Intn(120))
	g.bgSlope = 1 + g.rng.Intn(3)
	g.texAmp = g.rng.Intn(10)
	g.renderBackground()
	speed := g.opts.Speed * (0.5 + float64(g.rng.Intn(300))/100)
	count := 1 + g.rng.Intn(2*g.opts.Objects)
	g.objects = g.objects[:0]
	for i := 0; i < count; i++ {
		w := 12 + g.rng.Intn(g.w/4)
		h := 12 + g.rng.Intn(g.h/4)
		g.objects = append(g.objects, object{
			x:     float64(g.rng.Intn(g.w - w)),
			y:     float64(g.rng.Intn(g.h - h)),
			vx:    (float64(g.rng.Intn(200))/100 - 1) * speed,
			vy:    (float64(g.rng.Intn(200))/100 - 1) * speed,
			w:     w,
			h:     h,
			level: uint8(100 + g.rng.Intn(150)),
			cb:    uint8(64 + g.rng.Intn(128)),
			cr:    uint8(64 + g.rng.Intn(128)),
		})
	}
}

// renderBackground renders the scene's background luma into g.bg: a
// diagonal gradient plus per-scene texture.
func (g *Generator) renderBackground() {
	if len(g.bg) != g.w*g.h {
		g.bg = make([]uint8, g.w*g.h)
	}
	for y := 0; y < g.h; y++ {
		row := g.bg[y*g.w : (y+1)*g.w]
		for x := range row {
			v := int(g.bgBase) + (x+y)*g.bgSlope/4
			if g.texAmp > 0 {
				v += ((x*7 + y*13) & 15) * g.texAmp / 15
			}
			row[x] = uint8(min(v, 235))
		}
	}
}

// Next renders the next frame.
func (g *Generator) Next() *Frame {
	if g.cuts[g.frame] {
		g.newScene()
	}
	f := NewFrame(g.w, g.h)
	copy(f.Y, g.bg)
	// Objects (luma and chroma; chroma planes are half resolution).
	for i := range g.objects {
		o := &g.objects[i]
		x0, y0 := int(o.x), int(o.y)
		for y := y0; y < y0+o.h; y++ {
			for x := x0; x < x0+o.w; x++ {
				f.Set(x, y, o.level)
			}
		}
		for y := y0 / 2; y < (y0+o.h)/2; y++ {
			for x := x0 / 2; x < (x0+o.w)/2; x++ {
				f.CbSet(x, y, o.cb)
				f.CrSet(x, y, o.cr)
			}
		}
		o.x += o.vx
		o.y += o.vy
		if o.x < 0 || int(o.x)+o.w >= g.w {
			o.vx = -o.vx
			o.x += 2 * o.vx
		}
		if o.y < 0 || int(o.y)+o.h >= g.h {
			o.vy = -o.vy
			o.y += 2 * o.vy
		}
	}
	// Sensor noise (chroma noise at half amplitude, as in real sensors).
	if g.opts.Noise > 0 {
		n := g.opts.Noise
		for i := range f.Y {
			d := g.rng.Intn(2*n+1) - n
			v := int(f.Y[i]) + d
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			f.Y[i] = uint8(v)
		}
		cn := n / 2
		if cn > 0 {
			for _, plane := range [][]uint8{f.Cb, f.Cr} {
				for i := range plane {
					d := g.rng.Intn(2*cn+1) - cn
					v := int(plane[i]) + d
					if v < 0 {
						v = 0
					}
					if v > 255 {
						v = 255
					}
					plane[i] = uint8(v)
				}
			}
		}
	}
	g.frame++
	return f
}

// Sequence renders n frames.
func (g *Generator) Sequence(n int) []*Frame {
	out := make([]*Frame, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
