//! The RegJava benchmark programs of Fig 8, re-created in Core-Java.
//!
//! The original suite accompanied Christiansen & Velschow's RegJava checker
//! and is not publicly available; these programs reproduce each benchmark's
//! *allocation and lifetime structure* from its name and the paper's
//! description, so the space ratios, not the exact code, are what can be
//! compared. Program sizes are kept in the same ballpark as Fig 8's
//! "Size (lines)" column.

/// Sieve of Eratosthenes (input: array size). One long-lived array, no
/// reuse: space ratio 1 in every mode.
pub const SIEVE: &str = r#"
class Sieve {
    static int sieve(int n) {
        bool[] composite = new bool[n + 1];
        int i = 2;
        while (i * i <= n) {
            if (!composite[i]) {
                int j = i * i;
                while (j <= n) {
                    composite[j] = true;
                    j = j + i;
                }
            }
            i = i + 1;
        }
        int count = 0;
        int k = 2;
        while (k <= n) {
            if (!composite[k]) { count = count + 1; }
            k = k + 1;
        }
        count
    }

    static int main(int n) { sieve(n) }
}
"#;

/// Ackermann (inputs: m, n) with boxed naturals so each recursive step
/// allocates; per-call regions reclaim almost everything (ratio ≈ 0).
pub const ACKERMANN: &str = r#"
class Num {
    int v;
}

class Ack {
    static int ack(int m, int n) {
        if (m == 0) {
            Num box = new Num(n + 1);
            box.v
        } else {
            if (n == 0) {
                ack(m - 1, 1)
            } else {
                Num inner = new Num(ack(m, n - 1));
                ack(m - 1, inner.v)
            }
        }
    }

    static int main(int m, int n) { ack(m, n) }
}
"#;

/// List-based merge sort (input: list length). The split/merge phases
/// allocate fresh cells; intermediate lists die while the final one
/// survives, giving partial reuse.
pub const MERGE_SORT: &str = r#"
class MList {
    int value;
    MList next;
}

class MergeSort {
    static MList buildList(int n) {
        MList acc = (MList) null;
        int i = 0;
        int seed = 12345;
        while (i < n) {
            seed = (seed * 1103515245 + 12345) % 2147483647;
            if (seed < 0) { seed = -seed; }
            acc = new MList(seed % 100000, acc);
            i = i + 1;
        }
        acc
    }

    static int listLength(MList l) {
        int n = 0;
        MList cur = l;
        while (cur != null) { n = n + 1; cur = cur.next; }
        n
    }

    static MList take(MList l, int n) {
        MList dummy = new MList(0, (MList) null);
        MList tail = dummy;
        MList cur = l;
        int i = 0;
        while (i < n && cur != null) {
            MList cell = new MList(cur.value, (MList) null);
            tail.next = cell;
            tail = cell;
            cur = cur.next;
            i = i + 1;
        }
        dummy.next
    }

    static MList drop(MList l, int n) {
        MList cur = l;
        int i = 0;
        while (i < n && cur != null) { cur = cur.next; i = i + 1; }
        cur
    }

    static MList merge(MList a, MList b) {
        MList dummy = new MList(0, (MList) null);
        MList tail = dummy;
        MList x = a;
        MList y = b;
        while (x != null && y != null) {
            if (x.value <= y.value) {
                MList cell = new MList(x.value, (MList) null);
                tail.next = cell;
                tail = cell;
                x = x.next;
            } else {
                MList cell = new MList(y.value, (MList) null);
                tail.next = cell;
                tail = cell;
                y = y.next;
            }
        }
        while (x != null) {
            MList cell = new MList(x.value, (MList) null);
            tail.next = cell;
            tail = cell;
            x = x.next;
        }
        while (y != null) {
            MList cell = new MList(y.value, (MList) null);
            tail.next = cell;
            tail = cell;
            y = y.next;
        }
        dummy.next
    }

    static MList msort(MList l, int n) {
        if (n <= 1) {
            l
        } else {
            int half = n / 2;
            MList left = take(l, half);
            MList right = drop(l, half);
            merge(msort(left, half), msort(right, n - half))
        }
    }

    static bool isSorted(MList l) {
        MList cur = l;
        bool ok = true;
        while (cur != null) {
            if (cur.next != null) {
                if (cur.value > cur.next.value) { ok = false; }
            }
            cur = cur.next;
        }
        ok
    }

    static int main(int n) {
        MList l = buildList(n);
        MList sorted = msort(l, n);
        if (isSorted(sorted)) { listLength(sorted) } else { 0 - 1 }
    }
}
"#;

/// Mandelbrot (input: grid size). Per-pixel complex temporaries die with
/// each inner-loop region: ratio ≈ 0.
pub const MANDELBROT: &str = r#"
class Complex {
    float re;
    float im;
}

class Mandelbrot {
    static int iterate(float cre, float cim, int maxIter) {
        Complex z = new Complex(0.0, 0.0);
        int iter = 0;
        bool escaped = false;
        while (iter < maxIter && !escaped) {
            Complex z2 = new Complex(
                z.re * z.re - z.im * z.im + cre,
                2.0 * z.re * z.im + cim);
            z.re = z2.re;
            z.im = z2.im;
            if (z.re * z.re + z.im * z.im > 4.0) { escaped = true; }
            iter = iter + 1;
        }
        iter
    }

    static int main(int size) {
        int inside = 0;
        int y = 0;
        while (y < size) {
            int x = 0;
            while (x < size) {
                float cre = 3.0 * intToFloat(x) / intToFloat(size) - 2.0;
                float cim = 2.0 * intToFloat(y) / intToFloat(size) - 1.0;
                int it = iterate(cre, cim, 50);
                if (it == 50) { inside = inside + 1; }
                x = x + 1;
            }
            y = y + 1;
        }
        inside
    }

    static float intToFloat(int x) {
        float f = 0.0;
        int i = 0;
        int n = x;
        bool neg = false;
        if (n < 0) { neg = true; n = -n; }
        while (i < n) { f = f + 1.0; i = i + 1; }
        if (neg) { f = 0.0 - f; }
        f
    }
}
"#;

/// Naive Life (input: generations). Every generation's board is appended
/// to a history list, so nothing can be reclaimed: ratio 1.
pub const NAIVE_LIFE: &str = r#"
class Board {
    bool[] cells;
    int width;
    int height;
}

class History {
    Board board;
    History rest;
}

class NaiveLife {
    static Board seed(int w, int h) {
        bool[] cells = new bool[w * h];
        cells[1 * w + 0] = true;
        cells[1 * w + 1] = true;
        cells[1 * w + 2] = true;
        cells[0 * w + 2] = true;
        cells[2 * w + 1] = true;
        new Board(cells, w, h)
    }

    static int neighbours(Board b, int x, int y) {
        int count = 0;
        int dy = 0 - 1;
        while (dy <= 1) {
            int dx = 0 - 1;
            while (dx <= 1) {
                if (!(dx == 0 && dy == 0)) {
                    int nx = x + dx;
                    int ny = y + dy;
                    if (nx >= 0 && nx < b.width && ny >= 0 && ny < b.height) {
                        if (b.cells[ny * b.width + nx]) { count = count + 1; }
                    }
                }
                dx = dx + 1;
            }
            dy = dy + 1;
        }
        count
    }

    static Board step(Board b) {
        bool[] next = new bool[b.width * b.height];
        int y = 0;
        while (y < b.height) {
            int x = 0;
            while (x < b.width) {
                int n = neighbours(b, x, y);
                bool alive = b.cells[y * b.width + x];
                if (alive && (n == 2 || n == 3)) { next[y * b.width + x] = true; }
                if (!alive && n == 3) { next[y * b.width + x] = true; }
                x = x + 1;
            }
            y = y + 1;
        }
        new Board(next, b.width, b.height)
    }

    static int population(Board b) {
        int count = 0;
        int i = 0;
        while (i < b.width * b.height) {
            if (b.cells[i]) { count = count + 1; }
            i = i + 1;
        }
        count
    }

    static int main(int gens) {
        Board cur = seed(16, 16);
        History hist = new History(cur, (History) null);
        int g = 0;
        while (g < gens) {
            cur = step(cur);
            hist = new History(cur, hist);
            g = g + 1;
        }
        int total = 0;
        History h = hist;
        while (h != null) {
            total = total + population(h.board);
            h = h.rest;
        }
        total
    }
}
"#;

/// Optimized Life, array variant (input: generations). Two boards are
/// mutated in place; each generation's neighbour-count scratch array is
/// reclaimed per iteration: ratio ≈ (2 boards + 1 scratch) / (2 boards +
/// g scratches) ≈ 0.2 for ten generations.
pub const OPT_LIFE_ARRAY: &str = r#"
class OptLifeArray {
    static void seedBoard(bool[] cells, int w) {
        cells[1 * w + 0] = true;
        cells[1 * w + 1] = true;
        cells[1 * w + 2] = true;
        cells[0 * w + 2] = true;
        cells[2 * w + 1] = true;
    }

    static int countAt(bool[] cells, int w, int h, int x, int y) {
        int count = 0;
        int dy = 0 - 1;
        while (dy <= 1) {
            int dx = 0 - 1;
            while (dx <= 1) {
                if (!(dx == 0 && dy == 0)) {
                    int nx = x + dx;
                    int ny = y + dy;
                    if (nx >= 0 && nx < w && ny >= 0 && ny < h) {
                        if (cells[ny * w + nx]) { count = count + 1; }
                    }
                }
                dx = dx + 1;
            }
            dy = dy + 1;
        }
        count
    }

    static int main(int gens) {
        int w = 16;
        int h = 16;
        bool[] cur = new bool[w * h];
        seedBoard(cur, w);
        int g = 0;
        while (g < gens) {
            int[] counts = new int[w * h];
            int y = 0;
            while (y < h) {
                int x = 0;
                while (x < w) {
                    counts[y * w + x] = countAt(cur, w, h, x, y);
                    x = x + 1;
                }
                y = y + 1;
            }
            int i = 0;
            while (i < w * h) {
                int n = counts[i];
                bool alive = cur[i];
                if (alive) {
                    if (n < 2 || n > 3) { cur[i] = false; }
                } else {
                    if (n == 3) { cur[i] = true; }
                }
                i = i + 1;
            }
            g = g + 1;
        }
        int pop = 0;
        int k = 0;
        while (k < w * h) {
            if (cur[k]) { pop = pop + 1; }
            k = k + 1;
        }
        pop
    }
}
"#;

/// Optimized Life, dangling variant (input: generations). A cache object
/// keeps a *never-read* reference to each generation's scratch array. The
/// no-dangling-access policy (RegJava) may still reclaim the scratch; our
/// no-dangling policy must keep it, costing one localized region (the
/// paper's "-1" entry) and all reuse: ratio 1.
pub const OPT_LIFE_DANGLING: &str = r#"
class Cache {
    int[] lastCounts;
}

class OptLifeDangling {
    static int main(int gens) {
        int w = 16;
        int h = 16;
        bool[] cur = new bool[w * h];
        cur[1 * w + 0] = true;
        cur[1 * w + 1] = true;
        cur[1 * w + 2] = true;
        cur[0 * w + 2] = true;
        cur[2 * w + 1] = true;
        Cache cache = new Cache((int[]) null);
        int g = 0;
        while (g < gens) {
            int[] counts = new int[w * h];
            int y = 0;
            while (y < h) {
                int x = 0;
                while (x < w) {
                    counts[y * w + x] = dcountAt(cur, w, h, x, y);
                    x = x + 1;
                }
                y = y + 1;
            }
            cache.lastCounts = counts;
            int i = 0;
            while (i < w * h) {
                int n = counts[i];
                bool alive = cur[i];
                if (alive) {
                    if (n < 2 || n > 3) { cur[i] = false; }
                } else {
                    if (n == 3) { cur[i] = true; }
                }
                i = i + 1;
            }
            g = g + 1;
        }
        int pop = 0;
        int k = 0;
        while (k < w * h) {
            if (cur[k]) { pop = pop + 1; }
            k = k + 1;
        }
        pop
    }

    static int dcountAt(bool[] cells, int w, int h, int x, int y) {
        int count = 0;
        int dy = 0 - 1;
        while (dy <= 1) {
            int dx = 0 - 1;
            while (dx <= 1) {
                if (!(dx == 0 && dy == 0)) {
                    int nx = x + dx;
                    int ny = y + dy;
                    if (nx >= 0 && nx < w && ny >= 0 && ny < h) {
                        if (cells[ny * w + nx]) { count = count + 1; }
                    }
                }
                dx = dx + 1;
            }
            dy = dy + 1;
        }
        count
    }
}
"#;

/// Optimized Life, stack variant (input: generations). Boards are pushed
/// onto an explicit undo stack that survives the whole run: ratio 1.
pub const OPT_LIFE_STACK: &str = r#"
class SBoard {
    bool[] cells;
}

class Stack {
    SBoard top;
    Stack rest;
}

class OptLifeStack {
    static int main(int gens) {
        int w = 16;
        int h = 16;
        bool[] first = new bool[w * h];
        first[1 * w + 0] = true;
        first[1 * w + 1] = true;
        first[1 * w + 2] = true;
        first[0 * w + 2] = true;
        first[2 * w + 1] = true;
        SBoard cur = new SBoard(first);
        Stack undo = new Stack(cur, (Stack) null);
        int g = 0;
        while (g < gens) {
            bool[] next = new bool[w * h];
            int y = 0;
            while (y < h) {
                int x = 0;
                while (x < w) {
                    int n = scountAt(cur.cells, w, h, x, y);
                    bool alive = cur.cells[y * w + x];
                    if (alive && (n == 2 || n == 3)) { next[y * w + x] = true; }
                    if (!alive && n == 3) { next[y * w + x] = true; }
                    x = x + 1;
                }
                y = y + 1;
            }
            cur = new SBoard(next);
            undo = new Stack(cur, undo);
            g = g + 1;
        }
        int depth = 0;
        Stack s = undo;
        while (s != null) { depth = depth + 1; s = s.rest; }
        depth
    }

    static int scountAt(bool[] cells, int w, int h, int x, int y) {
        int count = 0;
        int dy = 0 - 1;
        while (dy <= 1) {
            int dx = 0 - 1;
            while (dx <= 1) {
                if (!(dx == 0 && dy == 0)) {
                    int nx = x + dx;
                    int ny = y + dy;
                    if (nx >= 0 && nx < w && ny >= 0 && ny < h) {
                        if (cells[ny * w + nx]) { count = count + 1; }
                    }
                }
                dx = dx + 1;
            }
            dy = dy + 1;
        }
        count
    }
}
"#;

/// Reynolds3 (input: tree depth). The paper's flagship example for field
/// subtyping: `search` conses an immutable environment list per visited
/// node; only field subtyping lets each frame's cell live in a younger
/// region than its tail, matching escape analysis (ratio ≈ 0 under
/// field-sub, 1 otherwise).
pub const REYNOLDS3: &str = r#"
class RList {
    int value;
    RList next;
}

class RTree {
    int value;
    RTree left;
    RTree right;
}

class Reynolds {
    static RTree buildTree(int depth, int label) {
        if (depth == 0) {
            (RTree) null
        } else {
            new RTree(label, buildTree(depth - 1, label * 2),
                      buildTree(depth - 1, label * 2 + 1))
        }
    }

    static bool member(int x, RList p) {
        if (p == null) {
            false
        } else {
            if (p.value == x) { true } else { member(x, p.next) }
        }
    }

    static bool search(RList p, RTree t) {
        if (t == null) {
            false
        } else {
            int x = t.value;
            if (member(x, p)) {
                true
            } else {
                RList p2 = new RList(x, p);
                if (search(p2, t.left)) { true } else { search(p2, t.right) }
            }
        }
    }

    static int main(int depth) {
        RTree t = buildTree(depth, 1);
        RList base = new RList(0, (RList) null);
        int hits = 0;
        int round = 0;
        while (round < 100) {
            if (search(base, t)) { hits = hits + 1; }
            round = round + 1;
        }
        hits
    }
}
"#;

/// foo-sum (input: iterations). The object-subtyping example of Sec 3.2:
/// one allocation per iteration is conditionally aliased with a long-lived
/// object (equivariant unification pins it to the long-lived region), two
/// more are purely local. Without subtyping ratio ≈ 1/3; with object
/// subtyping everything per-iteration is reclaimed.
pub const FOO_SUM: &str = r#"
class FBox {
    int weight;
}

class FooSum {
    static int pick(FBox a, FBox b, bool c) {
        FBox tmp;
        if (c) { tmp = a; } else { tmp = b; }
        tmp.weight
    }

    static int main(int iters) {
        FBox longLived = new FBox(1);
        int sum = 0;
        int i = 0;
        while (i < iters) {
            FBox fresh = new FBox(i);
            FBox scratchA = new FBox(i * 2);
            FBox scratchB = new FBox(i * 3);
            sum = sum + pick(longLived, fresh, i % 2 == 0);
            sum = sum + scratchA.weight + scratchB.weight;
            i = i + 1;
        }
        sum
    }
}
"#;
