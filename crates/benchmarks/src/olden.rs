//! The Olden benchmark programs of Fig 9, converted to Core-Java.
//!
//! The paper converted the C Olden suite \[11\] by hand to measure inference
//! scalability; its conversions are not published, so we perform the same
//! conversion ourselves. Each program keeps the original's data structures and phase structure —
//! trees, lists, bipartite graphs, quadtrees — which is what drives
//! inference cost (class recursion, method counts, call-graph SCCs). All
//! programs are runnable with a size parameter.

/// bisort: bitonic sort over a binary tree of integers.
pub const BISORT: &str = r#"
class BiNode {
    int value;
    BiNode left;
    BiNode right;
}

class BiRandom {
    int seed;
    int next() {
        this.seed = (this.seed * 1103515245 + 12345) % 2147483647;
        if (this.seed < 0) { this.seed = -this.seed; }
        this.seed % 65536
    }
}

class BiSort {
    static BiNode buildTree(int size, BiRandom rng) {
        if (size == 0) {
            (BiNode) null
        } else {
            int half = (size - 1) / 2;
            BiNode l = buildTree(half, rng);
            BiNode r = buildTree(size - 1 - half, rng);
            new BiNode(rng.next(), l, r)
        }
    }

    static int treeMin(BiNode t, int best) {
        if (t == null) {
            best
        } else {
            int b = best;
            if (t.value < b) { b = t.value; }
            treeMin(t.right, treeMin(t.left, b))
        }
    }

    static void swapValues(BiNode a, BiNode b) {
        int tmp = a.value;
        a.value = b.value;
        b.value = tmp;
    }

    static void biMerge(BiNode t, bool up) {
        if (t != null) {
            if (t.left != null && t.right != null) {
                bool cond = t.left.value > t.right.value;
                if (cond == up) { swapValues(t.left, t.right); }
            }
            biMerge(t.left, up);
            biMerge(t.right, up);
        }
    }

    static void bisort(BiNode t, bool up) {
        if (t != null) {
            bisort(t.left, up);
            bisort(t.right, !up);
            biMerge(t, up);
        }
    }

    static int checksum(BiNode t) {
        if (t == null) { 0 } else { t.value + checksum(t.left) + checksum(t.right) }
    }

    static int main(int size) {
        BiRandom rng = new BiRandom(42);
        BiNode t = buildTree(size, rng);
        int before = checksum(t);
        bisort(t, true);
        bisort(t, false);
        int after = checksum(t);
        if (before == after) { treeMin(t, 2147483647) } else { 0 - 1 }
    }
}
"#;

/// em3d: electromagnetic wave propagation on a bipartite graph; each node
/// recomputes its value from a linked list of incident nodes and
/// coefficients.
pub const EM3D: &str = r#"
class ENode {
    float value;
    EEdgeList fromList;
    ENode nextNode;
}

class EEdgeList {
    ENode from;
    float coeff;
    EEdgeList rest;
}

class EGraph {
    ENode eNodes;
    ENode hNodes;
}

class Em3d {
    static ENode makeNodes(int n, float base) {
        ENode acc = (ENode) null;
        int i = 0;
        float v = base;
        while (i < n) {
            acc = new ENode(v, (EEdgeList) null, acc);
            v = v + 1.5;
            i = i + 1;
        }
        acc
    }

    static ENode nth(ENode list, int k) {
        ENode cur = list;
        int i = 0;
        while (i < k && cur != null) { cur = cur.nextNode; i = i + 1; }
        cur
    }

    static int countNodes(ENode list) {
        int n = 0;
        ENode cur = list;
        while (cur != null) { n = n + 1; cur = cur.nextNode; }
        n
    }

    static void wire(ENode targets, ENode sources, int degree) {
        int n = countNodes(sources);
        ENode cur = targets;
        int offset = 1;
        while (cur != null) {
            int d = 0;
            while (d < degree) {
                ENode src = nth(sources, (offset * 7 + d * 3) % n);
                cur.fromList = new EEdgeList(src, 0.25, cur.fromList);
                d = d + 1;
            }
            offset = offset + 1;
            cur = cur.nextNode;
        }
    }

    static void relax(ENode list) {
        ENode cur = list;
        while (cur != null) {
            float sum = 0.0;
            EEdgeList e = cur.fromList;
            while (e != null) {
                sum = sum + e.coeff * e.from.value;
                e = e.rest;
            }
            cur.value = cur.value - sum;
            cur = cur.nextNode;
        }
    }

    static float sumValues(ENode list) {
        float s = 0.0;
        ENode cur = list;
        while (cur != null) { s = s + cur.value; cur = cur.nextNode; }
        s
    }

    static int main(int nodes) {
        EGraph g = new EGraph(makeNodes(nodes, 1.0), makeNodes(nodes, 2.0));
        wire(g.eNodes, g.hNodes, 3);
        wire(g.hNodes, g.eNodes, 3);
        int iter = 0;
        while (iter < 10) {
            relax(g.eNodes);
            relax(g.hNodes);
            iter = iter + 1;
        }
        float total = sumValues(g.eNodes) + sumValues(g.hNodes);
        if (total < 0.0) { 0 - 1 } else { 1 }
    }
}
"#;

/// health: a four-way tree of villages, each with waiting/assess/inside
/// patient lists; patients are generated, treated and bubbled up.
pub const HEALTH: &str = r#"
class Patient {
    int hosps;
    int time;
    Patient nextP;
}

class PatientQueue {
    Patient head;
    Patient tail;

    void enqueue(Patient p) {
        p.nextP = (Patient) null;
        if (this.tail == null) {
            this.head = p;
            this.tail = p;
        } else {
            this.tail.nextP = p;
            this.tail = p;
        }
    }

    Patient dequeue() {
        Patient p = this.head;
        if (p != null) {
            this.head = p.nextP;
            if (this.head == null) { this.tail = (Patient) null; }
            p.nextP = (Patient) null;
        }
        p
    }

    int size() {
        int n = 0;
        Patient cur = this.head;
        while (cur != null) { n = n + 1; cur = cur.nextP; }
        n
    }
}

class Village {
    int label;
    int seed;
    Village c0;
    Village c1;
    Village c2;
    Village c3;
    PatientQueue waiting;
    PatientQueue assess;

    int rand(int range) {
        this.seed = (this.seed * 1103515245 + 12345) % 2147483647;
        if (this.seed < 0) { this.seed = -this.seed; }
        this.seed % range
    }
}

class Health {
    static Village buildVillage(int level, int label) {
        if (level == 0) {
            (Village) null
        } else {
            Village v = new Village(label, label * 7919 + 17,
                buildVillage(level - 1, label * 4 + 1),
                buildVillage(level - 1, label * 4 + 2),
                buildVillage(level - 1, label * 4 + 3),
                buildVillage(level - 1, label * 4 + 4),
                new PatientQueue((Patient) null, (Patient) null),
                new PatientQueue((Patient) null, (Patient) null));
            v
        }
    }

    static void generatePatients(Village v) {
        if (v != null) {
            if (v.rand(100) < 30) {
                Patient p = new Patient(0, 0, (Patient) null);
                v.waiting.enqueue(p);
            }
            generatePatients(v.c0);
            generatePatients(v.c1);
            generatePatients(v.c2);
            generatePatients(v.c3);
        }
    }

    static void assessPatients(Village v) {
        if (v != null) {
            Patient p = v.waiting.dequeue();
            if (p != null) {
                p.time = p.time + 3;
                if (v.rand(100) < 70 || v.label == 0) {
                    v.assess.enqueue(p);
                } else {
                    p.hosps = p.hosps + 1;
                    v.waiting.enqueue(p);
                }
            }
            assessPatients(v.c0);
            assessPatients(v.c1);
            assessPatients(v.c2);
            assessPatients(v.c3);
        }
    }

    static int treated(Village v) {
        if (v == null) {
            0
        } else {
            v.assess.size() + treated(v.c0) + treated(v.c1)
                + treated(v.c2) + treated(v.c3)
        }
    }

    static int main(int levels) {
        Village top = buildVillage(levels, 0);
        int step = 0;
        while (step < 20) {
            generatePatients(top);
            assessPatients(top);
            step = step + 1;
        }
        treated(top)
    }
}
"#;

/// mst: minimum spanning tree over a synthetic dense graph (Prim's
/// algorithm with arrays for distances and a vertex list).
pub const MST: &str = r#"
class MVertex {
    int id;
    MVertex nextV;
}

class MstGraph {
    MVertex vertices;
    int count;

    int weight(int a, int b) {
        int x = a * 31 + b * 17;
        int w = (x * 1103515245 + 12345) % 2147483647;
        if (w < 0) { w = -w; }
        w % 1000 + 1
    }
}

class Mst {
    static MstGraph makeGraph(int n) {
        MVertex acc = (MVertex) null;
        int i = n - 1;
        while (i >= 0) {
            acc = new MVertex(i, acc);
            i = i - 1;
        }
        new MstGraph(acc, n)
    }

    static int computeMst(MstGraph g) {
        int n = g.count;
        int[] dist = new int[n];
        bool[] done = new bool[n];
        int i = 0;
        while (i < n) { dist[i] = 2147483647; i = i + 1; }
        dist[0] = 0;
        int total = 0;
        int round = 0;
        while (round < n) {
            int best = 0 - 1;
            int bestD = 2147483647;
            int j = 0;
            while (j < n) {
                if (!done[j] && dist[j] < bestD) { best = j; bestD = dist[j]; }
                j = j + 1;
            }
            if (best >= 0) {
                done[best] = true;
                total = total + bestD;
                MVertex v = g.vertices;
                while (v != null) {
                    if (!done[v.id]) {
                        int w = g.weight(best, v.id);
                        if (w < dist[v.id]) { dist[v.id] = w; }
                    }
                    v = v.nextV;
                }
            }
            round = round + 1;
        }
        total
    }

    static int main(int n) {
        MstGraph g = makeGraph(n);
        computeMst(g)
    }
}
"#;

/// power: hierarchical power-system optimization — root, laterals,
/// branches and leaves, with demand propagated up and prices down.
pub const POWER: &str = r#"
class PLeaf {
    float demand;
    PLeaf nextLeaf;
}

class PBranch {
    float current;
    PLeaf leaves;
    PBranch nextBranch;
}

class PLateral {
    float current;
    PBranch branches;
    PLateral nextLateral;
}

class PRoot {
    float price;
    PLateral laterals;
}

class Power {
    static PLeaf makeLeaves(int n) {
        PLeaf acc = (PLeaf) null;
        int i = 0;
        while (i < n) {
            acc = new PLeaf(1.0 + 0.5 * floatOf(i % 4), acc);
            i = i + 1;
        }
        acc
    }

    static PBranch makeBranches(int n, int leaves) {
        PBranch acc = (PBranch) null;
        int i = 0;
        while (i < n) {
            acc = new PBranch(0.0, makeLeaves(leaves), acc);
            i = i + 1;
        }
        acc
    }

    static PLateral makeLaterals(int n, int branches, int leaves) {
        PLateral acc = (PLateral) null;
        int i = 0;
        while (i < n) {
            acc = new PLateral(0.0, makeBranches(branches, leaves), acc);
            i = i + 1;
        }
        acc
    }

    static float leafDemand(PLeaf l, float price) {
        float total = 0.0;
        PLeaf cur = l;
        while (cur != null) {
            total = total + cur.demand / price;
            cur = cur.nextLeaf;
        }
        total
    }

    static float branchCurrent(PBranch b, float price) {
        float total = 0.0;
        PBranch cur = b;
        while (cur != null) {
            float i = leafDemand(cur.leaves, price);
            cur.current = i;
            total = total + i;
            cur = cur.nextBranch;
        }
        total
    }

    static float lateralCurrent(PLateral l, float price) {
        float total = 0.0;
        PLateral cur = l;
        while (cur != null) {
            float i = branchCurrent(cur.branches, price);
            cur.current = i;
            total = total + i;
            cur = cur.nextLateral;
        }
        total
    }

    static float floatOf(int x) {
        float f = 0.0;
        int i = 0;
        while (i < x) { f = f + 1.0; i = i + 1; }
        f
    }

    static int main(int laterals) {
        PRoot root = new PRoot(1.0, makeLaterals(laterals, 5, 10));
        int iter = 0;
        while (iter < 10) {
            float demand = lateralCurrent(root.laterals, root.price);
            if (demand > 100.0) {
                root.price = root.price * 1.1;
            } else {
                root.price = root.price * 0.95;
            }
            iter = iter + 1;
        }
        if (root.price > 0.0) { 1 } else { 0 }
    }
}
"#;

/// treeadd: build a balanced binary tree and sum it (the smallest Olden
/// program, 195 lines in the paper's conversion).
pub const TREEADD: &str = r#"
class TNode {
    int value;
    TNode left;
    TNode right;
}

class TreeAdd {
    static TNode build(int depth) {
        if (depth == 0) {
            (TNode) null
        } else {
            new TNode(1, build(depth - 1), build(depth - 1))
        }
    }

    static int sum(TNode t) {
        if (t == null) { 0 } else { t.value + sum(t.left) + sum(t.right) }
    }

    static int main(int depth) {
        TNode t = build(depth);
        sum(t)
    }
}
"#;

/// tsp: closest-point heuristic for the travelling salesman problem over
/// cities stored in a binary tree, producing a circular tour list.
pub const TSP: &str = r#"
class City {
    float x;
    float y;
    City treeLeft;
    City treeRight;
    City tourNext;
}

class Tsp {
    static City buildCities(int depth, float x0, float x1, float y0, float y1) {
        if (depth == 0) {
            (City) null
        } else {
            float mx = (x0 + x1) / 2.0;
            float my = (y0 + y1) / 2.0;
            City l = buildCities(depth - 1, x0, mx, y0, my);
            City r = buildCities(depth - 1, mx, x1, my, y1);
            new City(mx, my, l, r, (City) null)
        }
    }

    static float dist2(City a, City b) {
        float dx = a.x - b.x;
        float dy = a.y - b.y;
        dx * dx + dy * dy
    }

    static City collect(City t, City acc) {
        if (t == null) {
            acc
        } else {
            City withLeft = collect(t.treeLeft, acc);
            t.tourNext = withLeft;
            collect(t.treeRight, t)
        }
    }

    static float tourLength(City start) {
        float total = 0.0;
        City cur = start;
        while (cur != null) {
            if (cur.tourNext != null) {
                total = total + dist2(cur, cur.tourNext);
            }
            cur = cur.tourNext;
        }
        total
    }

    static City nearestSwap(City start) {
        City cur = start;
        while (cur != null) {
            City a = cur.tourNext;
            if (a != null) {
                City b = a.tourNext;
                if (b != null) {
                    if (dist2(cur, b) < dist2(cur, a)) {
                        cur.tourNext = b;
                        a.tourNext = b.tourNext;
                        b.tourNext = a;
                    }
                }
            }
            cur = cur.tourNext;
        }
        start
    }

    static int main(int depth) {
        City cities = buildCities(depth, 0.0, 100.0, 0.0, 100.0);
        City tour = collect(cities, (City) null);
        tour = nearestSwap(tour);
        float len = tourLength(tour);
        if (len >= 0.0) { 1 } else { 0 }
    }
}
"#;

/// perimeter: quadtrees describing a raster image; compute the perimeter
/// of the black region by recursive descent.
pub const PERIMETER: &str = r#"
class Quad {
    int color;
    Quad nw;
    Quad ne;
    Quad sw;
    Quad se;

    bool isLeaf() {
        this.nw == null
    }

    bool isBlack() {
        this.color == 1
    }
}

class Perimeter {
    static Quad buildImage(int depth, int x, int y) {
        if (depth == 0) {
            int color = 0;
            if ((x * x + y * y) % 7 < 3) { color = 1; }
            new Quad(color, (Quad) null, (Quad) null, (Quad) null, (Quad) null)
        } else {
            Quad nw = buildImage(depth - 1, x * 2, y * 2);
            Quad ne = buildImage(depth - 1, x * 2 + 1, y * 2);
            Quad sw = buildImage(depth - 1, x * 2, y * 2 + 1);
            Quad se = buildImage(depth - 1, x * 2 + 1, y * 2 + 1);
            int color = 2;
            if (nw.isLeaf() && ne.isLeaf() && sw.isLeaf() && se.isLeaf()) {
                if (nw.color == ne.color && sw.color == se.color
                    && nw.color == sw.color) {
                    color = nw.color;
                }
            }
            if (color == 2) {
                new Quad(2, nw, ne, sw, se)
            } else {
                new Quad(color, (Quad) null, (Quad) null, (Quad) null, (Quad) null)
            }
        }
    }

    static int countLeaves(Quad q) {
        if (q == null) {
            0
        } else {
            if (q.isLeaf()) {
                1
            } else {
                countLeaves(q.nw) + countLeaves(q.ne)
                    + countLeaves(q.sw) + countLeaves(q.se)
            }
        }
    }

    static int blackArea(Quad q, int size) {
        if (q == null) {
            0
        } else {
            if (q.isLeaf()) {
                if (q.isBlack()) { size * size } else { 0 }
            } else {
                blackArea(q.nw, size / 2) + blackArea(q.ne, size / 2)
                    + blackArea(q.sw, size / 2) + blackArea(q.se, size / 2)
            }
        }
    }

    static int perimeterOf(Quad q, int size) {
        if (q == null) {
            0
        } else {
            if (q.isLeaf()) {
                if (q.isBlack()) { 4 * size } else { 0 }
            } else {
                perimeterOf(q.nw, size / 2) + perimeterOf(q.ne, size / 2)
                    + perimeterOf(q.sw, size / 2) + perimeterOf(q.se, size / 2)
            }
        }
    }

    static int main(int depth) {
        Quad image = buildImage(depth, 0, 0);
        int leaves = countLeaves(image);
        int area = blackArea(image, 16);
        int perim = perimeterOf(image, 16);
        leaves + area + perim
    }
}
"#;

/// n-body (Barnes–Hut): bodies inserted into a quadtree; centers of mass
/// computed bottom-up; forces approximated by walking the tree.
pub const NBODY: &str = r#"
class Body {
    float x;
    float y;
    float mass;
    float vx;
    float vy;
    Body nextBody;
}

class BhCell {
    float cx;
    float cy;
    float cmass;
    float minX;
    float minY;
    float size;
    Body body;
    BhCell q0;
    BhCell q1;
    BhCell q2;
    BhCell q3;
}

class NBody {
    static Body makeBodies(int n) {
        Body acc = (Body) null;
        int i = 0;
        while (i < n) {
            float fi = bhFloat(i);
            acc = new Body(fi * 13.0 % 100.0, fi * 7.0 % 100.0,
                           1.0 + fi % 3.0, 0.0, 0.0, acc);
            i = i + 1;
        }
        acc
    }

    static BhCell emptyCell(float minX, float minY, float size) {
        new BhCell(0.0, 0.0, 0.0, minX, minY, size,
                   (Body) null, (BhCell) null, (BhCell) null,
                   (BhCell) null, (BhCell) null)
    }

    static int quadrantOf(BhCell c, Body b) {
        float mx = c.minX + c.size / 2.0;
        float my = c.minY + c.size / 2.0;
        if (b.x < mx) {
            if (b.y < my) { 0 } else { 2 }
        } else {
            if (b.y < my) { 1 } else { 3 }
        }
    }

    static BhCell childFor(BhCell c, int q) {
        float half = c.size / 2.0;
        float mx = c.minX + half;
        float my = c.minY + half;
        if (q == 0) {
            if (c.q0 == null) { c.q0 = emptyCell(c.minX, c.minY, half); }
            c.q0
        } else {
            if (q == 1) {
                if (c.q1 == null) { c.q1 = emptyCell(mx, c.minY, half); }
                c.q1
            } else {
                if (q == 2) {
                    if (c.q2 == null) { c.q2 = emptyCell(c.minX, my, half); }
                    c.q2
                } else {
                    if (c.q3 == null) { c.q3 = emptyCell(mx, my, half); }
                    c.q3
                }
            }
        }
    }

    static void insert(BhCell c, Body b, int depth) {
        if (c.body == null && c.q0 == null && c.q1 == null
            && c.q2 == null && c.q3 == null) {
            c.body = b;
        } else {
            if (depth < 12) {
                if (c.body != null) {
                    Body old = c.body;
                    c.body = (Body) null;
                    insert(childFor(c, quadrantOf(c, old)), old, depth + 1);
                }
                insert(childFor(c, quadrantOf(c, b)), b, depth + 1);
            }
        }
    }

    static float computeMass(BhCell c) {
        if (c == null) {
            0.0
        } else {
            if (c.body != null) {
                c.cmass = c.body.mass;
                c.cx = c.body.x;
                c.cy = c.body.y;
                c.cmass
            } else {
                float m = computeMass(c.q0) + computeMass(c.q1)
                    + computeMass(c.q2) + computeMass(c.q3);
                c.cmass = m;
                m
            }
        }
    }

    static float force(BhCell c, Body b) {
        if (c == null) {
            0.0
        } else {
            if (c.cmass == 0.0) {
                0.0
            } else {
                float dx = c.cx - b.x;
                float dy = c.cy - b.y;
                float d2 = dx * dx + dy * dy + 0.1;
                if (c.body != null || c.size * c.size < d2 * 0.25) {
                    c.cmass * b.mass / d2
                } else {
                    force(c.q0, b) + force(c.q1, b)
                        + force(c.q2, b) + force(c.q3, b)
                }
            }
        }
    }

    static float bhFloat(int x) {
        float f = 0.0;
        int i = 0;
        while (i < x) { f = f + 1.0; i = i + 1; }
        f
    }

    static int main(int n) {
        Body bodies = makeBodies(n);
        int iter = 0;
        float total = 0.0;
        while (iter < 3) {
            BhCell root = emptyCell(0.0, 0.0, 100.0);
            Body cur = bodies;
            while (cur != null) {
                insert(root, cur, 0);
                cur = cur.nextBody;
            }
            computeMass(root);
            cur = bodies;
            while (cur != null) {
                total = total + force(root, cur);
                cur = cur.nextBody;
            }
            iter = iter + 1;
        }
        if (total >= 0.0) { 1 } else { 0 }
    }
}
"#;

/// voronoi: sites in a kd-tree; nearest-site queries for a grid of probe
/// points, accumulating Delaunay-style edges between neighbouring sites.
pub const VORONOI: &str = r#"
class VSite {
    float x;
    float y;
    VSite kdLeft;
    VSite kdRight;
}

class VEdge {
    VSite a;
    VSite b;
    VEdge nextEdge;
}

class Voronoi {
    static VSite buildKd(int depth, float x0, float x1, float y0, float y1, bool splitX) {
        if (depth == 0) {
            (VSite) null
        } else {
            float mx = (x0 + x1) / 2.0;
            float my = (y0 + y1) / 2.0;
            VSite l;
            VSite r;
            if (splitX) {
                l = buildKd(depth - 1, x0, mx, y0, y1, !splitX);
                r = buildKd(depth - 1, mx, x1, y0, y1, !splitX);
            } else {
                l = buildKd(depth - 1, x0, x1, y0, my, !splitX);
                r = buildKd(depth - 1, x0, x1, my, y1, !splitX);
            }
            new VSite(mx, my, l, r)
        }
    }

    static float vdist2(float ax, float ay, float bx, float by) {
        float dx = ax - bx;
        float dy = ay - by;
        dx * dx + dy * dy
    }

    static VSite nearest(VSite t, float px, float py, VSite best) {
        if (t == null) {
            best
        } else {
            VSite b = best;
            if (b == null) {
                b = t;
            } else {
                if (vdist2(t.x, t.y, px, py) < vdist2(b.x, b.y, px, py)) {
                    b = t;
                }
            }
            b = nearest(t.kdLeft, px, py, b);
            nearest(t.kdRight, px, py, b)
        }
    }

    static int countEdges(VEdge e) {
        int n = 0;
        VEdge cur = e;
        while (cur != null) { n = n + 1; cur = cur.nextEdge; }
        n
    }

    static bool hasEdge(VEdge e, VSite a, VSite b) {
        VEdge cur = e;
        bool found = false;
        while (cur != null) {
            if ((cur.a == a && cur.b == b) || (cur.a == b && cur.b == a)) {
                found = true;
            }
            cur = cur.nextEdge;
        }
        found
    }

    static int main(int depth) {
        VSite sites = buildKd(depth, 0.0, 100.0, 0.0, 100.0, true);
        VEdge edges = (VEdge) null;
        int gy = 0;
        while (gy < 8) {
            int gx = 0;
            while (gx < 8) {
                float px = 12.5 * vfl(gx);
                float py = 12.5 * vfl(gy);
                VSite n1 = nearest(sites, px, py, (VSite) null);
                VSite n2 = nearest(sites, px + 6.0, py + 6.0, (VSite) null);
                if (n1 != null && n2 != null && n1 != n2) {
                    if (!hasEdge(edges, n1, n2)) {
                        edges = new VEdge(n1, n2, edges);
                    }
                }
                gx = gx + 1;
            }
            gy = gy + 1;
        }
        countEdges(edges)
    }

    static float vfl(int x) {
        float f = 0.0;
        int i = 0;
        while (i < x) { f = f + 1.0; i = i + 1; }
        f
    }
}
"#;
