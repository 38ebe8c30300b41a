package repro.core

import repro.core.Tup.T
import scala.collection.immutable.ArraySeq

/** CROWN: change propagation without joins (§4–§5 of the paper).
  *
  * The engine is compiled from a free-connex generalized join tree. Every
  * node `e` maintains
  *
  *   - its relation tuples with a counter `count[t]` = number of children
  *     `c` with `t[key(c)] ∈ V_p(c)`; `t ∈ V_s(e)` iff the counter is full
  *     (the "horizontal derivation counting" of Algorithm 3);
  *   - `V_p(e) = π_key(e) V_s(e)`, each key counted by its `V_s` tuples
  *     (Algorithm 2), and `π_y V_s(e)`, counted the same way: a table of its
  *     own only at the root or where it is neither `V_s(e)` (`y` covers `e`)
  *     nor `V_p(e)` (`e`'s output attributes are its key);
  *   - where enumeration reads it (a node in its parent's `enumKids`): the
  *     distinct output projections of `V_s`, counted, grouped by `key(e)`
  *     (Algorithm 5 lines 1–3); an all-output node's projection is its
  *     tuple;
  *   - the live view `V_l(e) = π_{e∩y} Q(D)` (§5.2), held only in its hash
  *     indexes under the output-carrying children, which read it, and
  *     maintained from the enumerated deltas via Lemma 5.5.
  *
  * Updates run R-Update / S-Update / P-Update along the leaf-to-root path
  * (Algorithms 2–4). Both enumeration modes run one program compiled per
  * node: nested loops over hash-indexed views, one flat array of levels,
  * run by one iterative loop. FullEnum (Algorithm 5) runs the root's
  * program from each root projection. Delta enumeration runs a node's
  * program from each of its changed projections: a witness (Def 5.6) joins
  * the live views up the path, then FullEnum covers the disjoint subtrees
  * (Algorithm 6). Insertions and deletions run one cascade, signed by the
  * update: every counter moves by ±1, and a view entry flips where its
  * count crosses between 0 and 1. Insertions enumerate on the post-update
  * state with pre-update live views. A deletion's counters drop at once,
  * but its leaving tuples stay in the enumeration indexes until the delta
  * has been enumerated with the dying projections excluded, and are
  * dropped only then — realizing the disjoint union of Lemma 5.7.
  *
  * Every tuple and key is an encoded `Long` handle ([[Dict]]) held in the
  * open-addressing tables of `Prim.scala`. An update encodes its tuple once,
  * after the atom's filter; a result is decoded once, when it is emitted,
  * into the values the base tuples were given with.
  */
final class CrownEngine(val cq: CQ, val treeSpec: JTNode) extends IncrementalEngine {

  override def name: String = "CROWN"

  private val y: Vector[String] = cq.output
  require(y.nonEmpty, "CROWN needs at least one output attribute")

  private val dict = new Dict

  // ---------------------------------------------------------------- nodes

  private final class Node(id: Int, attrs: Vector[String], atom: Option[Atom], ySet: Set[String])
      extends PlanNode[Node](id, attrs, atom, ySet) {
    val tuples = new LongIntMap                        // tuple -> counter
    var childIdx: Array[LongObjMap[LongSet]] = _       // input nodes
    val vp = new LongIntMap                            // non-root
    var projCnt: LongIntMap = _                        // hasY: π_y V_s, see below
    var enumIdx: LongObjMap[LongIntMap] = _            // in the parent's enumKids
    var liveIdx: Array[LongObjMap[LongSet]] = _        // per hasY child, if hasY

    // the plan's projections, compiled against the dictionary
    var keyP: Proj = _                 // non-root
    var yP: Proj = _
    var linkUpP: Proj = _              // non-root, hasY
    var resP: Proj = _                 // result -> yAttrs
    var childKeyP: Array[Proj] = _
    var liveKeyP: Array[Proj] = _      // hasY
    // input nodes: the atom's filter (or null), the ids of the tuple being
    // updated, its handle and the wide keys its base tuples retain
    var filter: T => Boolean = _
    var ids: Array[Int] = _
    var tupP: Proj = _
    var wideP: Array[Proj] = _

    /** `p` is in π_y V_s; where that is V_s itself, its counter is full. */
    def hasProj(p: Long): Boolean =
      if (projCnt == null) tuples.get(p, -1) == children.length else projCnt.contains(p)
  }

  // ---------------------------------------------------------- compilation

  private val plan = new Plan[Node](cq, treeSpec)(new Node(_, _, _, _))
  private val nodes: Array[Node] = plan.nodes
  private val root: Node = plan.root
  require(root.hasY, s"root of $treeSpec carries no output attribute")

  private val newSet: () => LongSet = () => new LongSet
  private val newCounts: () => LongIntMap = () => new LongIntMap

  /** The wide keys that the base tuples of input node `a` retain, as index
    * arrays into `a`'s attributes. A key stored at node `n` is a projection
    * of a tuple of `n`, hence of a live base tuple of an atom below `n` whose
    * attributes cover `n`'s; each such atom lists the projection.
    */
  private def wideKeys(a: Node): Array[Array[Int]] = {
    val stored = for {
      n <- a.path.iterator if n.attrs.forall(a.attrs.contains)
      key <- Iterator(n.attrs, n.keyAttrs, n.yAttrs) ++
        n.children.iterator.flatMap(c => Iterator(c.keyAttrs, c.linkAttrs))
      if Dict.isWide(key.length)
    } yield key
    stored.distinct.map(Tup.projIdx(a.attrs, _)).toArray
  }

  for (n <- nodes) {
    def proj(in: Int, idx: Array[Int]): Proj = if (idx == null) null else new Proj(dict, in, idx)
    val arity = n.attrs.length
    val yArity = n.yAttrs.length
    if (!n.isGen) {
      n.childIdx = n.children.map(_ => new LongObjMap[LongSet])
      n.filter = cq.atomFilters.getOrElse(n.atom.get.name, null)
      n.ids = new Array[Int](arity)
      n.tupP = proj(arity, Array.range(0, arity))
      n.wideP = wideKeys(n).map(proj(arity, _))
    }
    n.liveIdx = n.children.map(c => if (n.hasY && c.hasY) new LongObjMap[LongSet] else null)
    // below the root, π_y V_s is V_s itself (null) if y covers n, V_p if y is n's key
    if (n.hasY) n.projCnt = if (n.isRoot) new LongIntMap else if (n.yAttrs == n.attrs) null
      else if (n.yAttrs == n.keyAttrs) n.vp else new LongIntMap
    n.yP = proj(arity, n.yIdx)
    n.resP = proj(y.length, n.yOut)
    if (!n.isRoot) {
      n.keyP = proj(arity, n.keyIdx)
      if (n.hasY) n.linkUpP = proj(yArity, n.linkUpIdx)
    }
    n.childKeyP = n.childKeyIdx.map(proj(arity, _))
    if (n.hasY) n.liveKeyP = n.liveKeyIdx.map(proj(yArity, _))
  }
  for (n <- nodes; c <- n.enumKids) {
    require(c.hasY, s"enum child ${c.attrs} carries no output attribute (unsupported tree)")
    require(n.childKeyFromY(c.childPos) != null,
      s"join key into output-bearing child ${c.attrs} is not all-output — tree not enumerable")
    c.enumIdx = new LongObjMap[LongIntMap]
  }

  /** Non-root nodes with an output-carrying child, which reads their live view;
    * top-down, for deletion maintenance. The root's live view is its π_y V_s.
    */
  private val liveNodes: Array[Node] =
    nodes.filter(n => !n.isRoot && n.liveIdx.exists(_ != null)).sortBy(_.depth)

  // -------------------------------------------------------------- deltas

  private final class NodeDelta {
    val vsTuples = new LongBuf
    val projSet = new LongSet
    def clear(): Unit = { vsTuples.clear(); projSet.clear() }
  }
  private val nodeDeltas: Array[NodeDelta] = Array.fill(nodes.length)(new NodeDelta)
  private val liveBuf: Array[LongSet] = Array.fill(nodes.length)(new LongSet)

  private var ops: Long = 0L
  override def workOps: Long = ops

  /** Ids in use in the engine's dictionary: values and wide keys. */
  def dictEntries: Long = dict.entries

  // --------------------------------------------------------- propagation

  override def processUpdate(u: Upd)(emit: T => Unit): Long = {
    val e0 = plan.atomNode(u.rel)
    Tup.checkArity(u.rel, e0.attrs.length, u.t)
    if (e0.filter != null && !e0.filter(u.t)) return 0L // §7.2 selection
    val ids = e0.ids
    val known = dict.lookupAll(u.t, u.rel, ids)
    if ((known && e0.tuples.contains(e0.tupP.fromIds(ids))) == u.isInsert)
      return 0L // ineffective under set semantics
    val sign = if (u.isInsert) 1 else -1
    if (sign > 0) retain(e0, u)
    clearBuffers(e0)
    rUpdate(e0, e0.tupP.fromIds(ids), sign)
    val n = enumerateDeltas(e0, emit) // a deletion's leaving tuples are still indexed
    settleLive(sign)
    if (sign < 0) {
      dropLeftVs(e0)
      release(e0) // the deleted tuple's values and wide keys, now unused
    }
    n
  }

  /** R-Update (Algorithm 4): the base tuple `t0`, whose ids are in
    * `e0.ids`, enters (`sign` = 1) or leaves (-1) `e0`'s relation.
    */
  private def rUpdate(e0: Node, t0: Long, sign: Int): Unit = {
    // the children's V_p do not move before shiftVs, so on a deletion
    // `count` is the counter the tuple had
    var count = 0
    var i = 0
    while (i < e0.children.length) {
      val k = e0.childKeyP(i).fromIds(e0.ids)
      shiftIndex(e0.childIdx(i), k, t0, sign)
      if (e0.children(i).vp.contains(k)) count += 1
      ops += 1
      i += 1
    }
    if (sign > 0) e0.tuples.put(t0, count) else e0.tuples.remove(t0)
    if (count == e0.children.length) shiftVs(e0, t0, sign)
  }

  /** S-Update/P-Update cascade (Algorithms 2–3): `tt` entered (`sign` = 1)
    * or left (`sign` = -1) `V_s(e)`. A projection or key enters its view at
    * count 1 and leaves it at 0; where π_y V_s is V_s, every shift flips
    * `tt`, and where it is V_p, the key's flip is the projection's. On a
    * deletion the counters drop at once, while `enumIdx` keeps `tt`'s
    * projection until the delta has been enumerated ([[dropLeftVs]]).
    */
  private def shiftVs(e: Node, tt: Long, sign: Int): Unit = {
    val d = nodeDeltas(e.id)
    if (sign > 0) ops += 1 // S-Update work is counted on insertions only
    val k = if (e.isRoot) 0L else e.keyP(tt)
    val up = !e.isRoot && shiftCount(e.vp, k, sign)
    if (e.hasY) {
      val yp = e.yP(tt) // tt itself if y covers e, k if y is e's key
      val pc = e.projCnt
      if (pc == null || (if (pc eq e.vp) up else shiftCount(pc, yp, sign))) {
        d.projSet.add(yp)
        if (e.isRoot) shiftLive(root, yp, sign)
      }
      if (e.enumIdx != null) {
        if (sign > 0) e.enumIdx.getOrElseUpdate(k, newCounts).addTo(yp, 1)
        else d.vsTuples += tt
      }
    }
    if (up) pUpdate(e.parent, e, k, sign)
  }

  /** Move `k`'s count in `m` by `sign`; true if `k` entered `m` (count 1)
    * or left it (count 0, and then it is removed).
    */
  private def shiftCount(m: LongIntMap, k: Long, sign: Int): Boolean = {
    val c = m.addTo(k, sign)
    if (c == 0) m.remove(k)
    c == 0 || c == sign
  }

  /** P-Update (Algorithm 3): key `k` entered (`sign` = 1) or left (-1)
    * `V_p(child)`. A parent tuple enters `V_s` when its counter becomes full
    * and leaves it when its counter drops from full; a generated tuple whose
    * counter reaches 0 is removed.
    */
  private def pUpdate(p: Node, child: Node, k: Long, sign: Int): Unit = {
    val flip = if (sign > 0) p.children.length else p.children.length - 1
    if (p.isGen) {
      ops += 1
      val c = p.tuples.addTo(k, sign)
      if (c == flip) shiftVs(p, k, sign)
      if (c == 0) p.tuples.remove(k)
    } else {
      val set = p.childIdx(child.childPos).get(k)
      if (set != null) {
        var s = set.nextSlot(0)
        while (s >= 0) {
          val tt = set.keyAt(s)
          ops += 1
          if (p.tuples.addTo(tt, sign) == flip) shiftVs(p, tt, sign)
          s = set.nextSlot(s + 1)
        }
      }
    }
  }

  /** Add `v` to (`sign` = 1) or remove it from (-1) the set under `k` in
    * `m`; a set left empty is dropped.
    */
  private def shiftIndex(m: LongObjMap[LongSet], k: Long, v: Long, sign: Int): Unit =
    if (sign > 0) m.getOrElseUpdate(k, newSet).add(v)
    else {
      val set = m.get(k)
      if (set != null) {
        set.remove(v)
        if (set.isEmpty) m.remove(k)
      }
    }

  /** Remove the projections of the tuples that left `V_s` along `e0`'s path
    * from the enumeration indexes.
    */
  private def dropLeftVs(e0: Node): Unit = {
    val path = e0.path
    var i = 0
    while (i < path.length) {
      val e = path(i)
      if (e.enumIdx != null) {
        val left = nodeDeltas(e.id).vsTuples
        var j = 0
        while (j < left.length) {
          val tt = left(j)
          val k = e.keyP(tt)
          val m = e.enumIdx.get(k)
          shiftCount(m, e.yP(tt), -1)
          if (m.isEmpty) e.enumIdx.remove(k)
          j += 1
        }
      }
      i += 1
    }
  }

  private def clearBuffers(e0: Node): Unit = {
    val path = e0.path
    var i = 0
    while (i < path.length) { nodeDeltas(path(i).id).clear(); i += 1 }
    i = 0
    while (i < liveNodes.length) { liveBuf(liveNodes(i).id).clear(); i += 1 }
  }

  // ------------------------------------------------------------- encoding

  /** A new base tuple retains its values, creating the missing ones in
    * `e0.ids`, and the wide keys the plan lists for its atom.
    */
  private def retain(e0: Node, u: Upd): Unit = {
    dict.acquireAll(u.t, u.rel, e0.ids)
    var i = 0
    while (i < e0.wideP.length) { dict.wideAcquire(e0.wideP(i).gather(e0.ids)); i += 1 }
  }

  /** Release what the deleted base tuple in `e0.ids` retained. */
  private def release(e0: Node): Unit = {
    var i = 0
    while (i < e0.wideP.length) { dict.release(dict.wideLookup(e0.wideP(i).gather(e0.ids))); i += 1 }
    dict.releaseAll(e0.ids)
  }

  // --------------------------------------------------------- enumeration

  /** One level of an enumeration program: it looks `index` up by the key
    * that `keyP` makes of the projection chosen at level `src`, and iterates
    * the bucket found, skipping members of `excl` (if not null). Each member
    * is a projection of `node` onto its output attributes.
    */
  private final class Level(val node: Node, val index: LongObjMap[_ <: LongTable],
                            val src: Int, val keyP: Proj, val excl: LongSet)

  /** Node `e`'s enumeration program, Algorithm 6 for a witness projection
    * at level 0 (Algorithm 5 if `e` is the root): one live level for each
    * ancestor up `e.path`, excluding the projections this update changed
    * there (Def 5.6), then the preorder FullEnum levels below each node of
    * the path, skipping the path's own child; each reads its node's
    * `enumIdx`.
    */
  private def compileProgram(e: Node): Array[Level] = {
    val levels = scala.collection.mutable.ArrayBuffer(new Level(e, null, -1, null, null))
    val path = e.path
    for (j <- 1 until path.length)
      levels += new Level(path(j), path(j).liveIdx(path(j - 1).childPos), j - 1,
        path(j - 1).linkUpP, nodeDeltas(path(j).id).projSet)
    def below(n: Node, at: Int, skip: Node): Unit =
      for (c <- n.enumKids if c ne skip) {
        levels += new Level(c, c.enumIdx, at,
          new Proj(dict, n.yAttrs.length, n.childKeyFromY(c.childPos)), null)
        below(c, levels.length - 1, null)
      }
    for (j <- path.indices) below(path(j), j, if (j == 0) null else path(j - 1))
    levels.toArray
  }

  private val programs: Array[Array[Level]] = nodes.map(n => if (n.hasY) compileProgram(n) else null)
  // per-level cursors, shared: runs never nest
  private val depth = programs.iterator.filter(_ != null).map(_.length).max
  private val chosen = new Array[Long](depth)
  private val bucket = new Array[LongTable](depth)
  private val cur = new Array[Int](depth)
  private val noBucket = new LongSet
  private val slots = new Array[Int](y.length) // ids of the result being built

  private val resultFilter: T => Boolean = cq.resultFilter.orNull
  private var fullCb: T => Boolean = _ // set during enumerateFull
  private var deltaEmit: T => Unit = _ // set during enumerateDeltas
  private var deltaCount = 0L

  /** Enumeration steps so far: level opens and slot reads, where the read
    * that finds a level exhausted is its pop. Skipped empty slots are not
    * counted.
    */
  private var steps = 0L
  private var lastResultAt = 0L

  /** The most steps the last `enumerateFull` took between two consecutive
    * results, before its first or after its last.
    */
  private[core] var fullEnumMaxSteps = 0L

  /** Levels of the root's program, the loop depth of `enumerateFull`. */
  private[core] def fullEnumLevels: Int = programs(root.id).length

  @inline private def writeProj(e: Node, proj: Long): Unit =
    dict.unpack(proj, e.yOut.length, slots, e.yOut)

  /** Run `levels` from the projection `seed` at level 0, emitting every
    * result reached; false if the callback stopped the enumeration.
    */
  private def run(levels: Array[Level], seed: Long): Boolean = {
    chosen(0) = seed
    writeProj(levels(0).node, seed)
    var k = 1
    var open = true
    while (k > 0) {
      if (k == levels.length) {
        if (!emitResult()) return false
        k -= 1; open = false
      } else {
        val l = levels(k)
        if (open) {
          val found = l.index.get(l.keyP(chosen(l.src)))
          bucket(k) = if (found == null) noBucket else found
          cur(k) = -1
          steps += 1
        }
        val b = bucket(k)
        var s = b.nextSlot(cur(k) + 1)
        steps += 1
        if (l.excl != null)
          while (s >= 0 && l.excl.contains(b.keyAt(s))) { s = b.nextSlot(s + 1); steps += 1 }
        if (s < 0) { k -= 1; open = false }
        else {
          cur(k) = s
          chosen(k) = b.keyAt(s)
          writeProj(l.node, chosen(k))
          k += 1; open = true
        }
      }
    }
    true
  }

  /** Decode the result in `slots` and pass it on: to `enumerateFull`'s
    * callback, or to the update's `emit`, buffering its projections for the
    * live views. A delta result that the query's result filter drops is
    * buffered too: the live views are projections of the unfiltered join.
    */
  private def emitResult(): Boolean = {
    val a = new Array[Any](slots.length)
    var i = 0
    while (i < a.length) { a(i) = dict.decode(slots(i)); i += 1 }
    val res: T = ArraySeq.unsafeWrapArray(a)
    if (resultFilter != null && !resultFilter(res)) {
      if (fullCb == null) bufferLive()
      true
    } else if (fullCb != null) {
      fullEnumMaxSteps = math.max(fullEnumMaxSteps, steps - lastResultAt)
      lastResultAt = steps
      fullCb(res)
    } else {
      deltaEmit(res)
      deltaCount += 1
      bufferLive()
      true
    }
  }

  /** Buffer the projections of the delta result in `slots` for the live views. */
  private def bufferLive(): Unit = {
    var i = 0
    while (i < liveNodes.length) {
      val e = liveNodes(i)
      liveBuf(e.id).add(e.resP.fromIds(slots))
      i += 1
    }
  }

  /** FullEnum (Algorithm 5): the root's program from each root projection.
    *
    * The delay is constant. Let L be the program's levels. Every bucket
    * opened is non-empty, because the views are semi-join reduced: a tuple
    * in V_s has each child key in that child's V_p, so each lookup finds a
    * bucket with a member. After a result the loop pops d levels (one
    * exhausting read each), reads the next slot of the level above (one
    * step), and opens and reads the d levels below it again (two steps
    * each): 3d + 1 ≤ 3L − 2 steps, counting the read of the next root
    * projection as the level above when d = L − 1. Before the first result
    * there are 1 + 2(L − 1) steps, after the last L. So no delay exceeds
    * 3L − 2 steps, whatever the size of the database.
    */
  override def enumerateFull(cb: T => Boolean): Unit = {
    val roots = root.projCnt
    fullCb = cb
    fullEnumMaxSteps = 0L
    lastResultAt = steps
    try {
      var s = roots.nextSlot(0)
      steps += 1
      while (s >= 0 && run(programs(root.id), roots.keyAt(s))) { s = roots.nextSlot(s + 1); steps += 1 }
      fullEnumMaxSteps = math.max(fullEnumMaxSteps, steps - lastResultAt)
    } finally fullCb = null
  }

  /** Enumerate `ΔQ(D, t)`: each new or dead projection of an output-carrying
    * node on the path runs that node's program. A root projection is a
    * witness outright (Corollary 5.2); one below the root yields results
    * only if it joins the live views above it (Def 5.6).
    */
  private def enumerateDeltas(e0: Node, emit: T => Unit): Long = {
    val path = e0.path
    deltaEmit = emit
    deltaCount = 0L
    var i = 0
    while (i < path.length) {
      val e = path(i)
      if (e.hasY) {
        val ps = nodeDeltas(e.id).projSet
        var s = ps.nextSlot(0)
        while (s >= 0) { run(programs(e.id), ps.keyAt(s)); s = ps.nextSlot(s + 1) }
      }
      i += 1
    }
    deltaEmit = null
    deltaCount
  }

  // ------------------------------------------------------------ live views

  /** Index (`sign` = 1) or unindex (-1) live projection `p` of `e` under
    * each output-carrying child.
    */
  private def shiftLive(e: Node, p: Long, sign: Int): Unit = {
    var i = 0
    while (i < e.children.length) {
      if (e.liveIdx(i) != null) shiftIndex(e.liveIdx(i), e.liveKeyP(i)(p), p, sign)
      i += 1
    }
  }

  /** Settle the live views after the update's deltas were enumerated
    * (Lemma 5.5; buffered so the S-joins of the same update see the
    * pre-update live views). On an insertion every buffered projection
    * becomes live. On a deletion one stays live iff it is still in π_y V_s
    * and still joins the parent's live view (whose emptied index sets are
    * dropped), checked top-down so parents settle first. A live projection
    * is in every index of its node, so indexing a live one, or unindexing
    * one that is not, changes nothing.
    */
  private def settleLive(sign: Int): Unit = {
    var li = 0
    while (li < liveNodes.length) { // liveNodes is top-down
      val e = liveNodes(li)
      val buf = liveBuf(e.id)
      var s = buf.nextSlot(0)
      while (s >= 0) {
        val p = buf.keyAt(s)
        if (sign > 0 || !(e.hasProj(p) && e.parent.liveIdx(e.childPos).contains(e.linkUpP(p))))
          shiftLive(e, p, sign)
        s = buf.nextSlot(s + 1)
      }
      li += 1
    }
  }

  // ------------------------------------------------------------- metrics

  override def spaceEntries: Long = {
    import LongObjMap.bucketSizes
    var s = 0L
    for (n <- nodes) {
      s += n.tuples.size + n.vp.size
      if (n.projCnt != null && (n.projCnt ne n.vp)) s += n.projCnt.size
      if (n.enumIdx != null) s += bucketSizes(n.enumIdx)
      if (n.childIdx != null) s += n.childIdx.iterator.map(bucketSizes).sum
      s += n.liveIdx.iterator.filter(_ != null).map(bucketSizes).sum
    }
    s
  }
}
