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
  *   - the projection view `V_p(e) = π_key(e) V_s(e)` with derivation counts
  *     (Algorithm 2);
  *   - for enumeration: `V_s` grouped by `key(e)`, and for nodes with
  *     non-output attributes the counted distinct output-projections per key
  *     (Algorithm 5 lines 1–3);
  *   - the live view `V_l(e) = π_{e∩y} Q(D)` with per-child hash indexes
  *     (§5.2), maintained from the enumerated deltas via Lemma 5.5.
  *
  * Updates run R-Update / S-Update / P-Update along the leaf-to-root path
  * (Algorithms 2–4). Delta enumeration finds witness tuples (Def 5.6) on the
  * projection-level view deltas and enumerates each `Q(D ⋉ t')` by joining
  * the witness with the live views up the path and running FullEnum on the
  * disjoint subtrees (Algorithm 6). Insertions enumerate on the post-update
  * state with pre-update live views. Deletions run the mirrored cascade,
  * whose counters drop at once, while the leaving tuples stay in the
  * enumeration indexes until the delta has been enumerated with the dying
  * projections excluded — the time-reversed mirror, realizing the disjoint
  * union of Lemma 5.7.
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
    val vsByKey = new LongObjMap[LongSet]              // non-root
    val projCnt = new LongIntMap                       // hasY
    val projByKey = new LongObjMap[LongIntMap]         // mixed, non-root, hasY
    val live = new LongSet                             // internal, non-root, hasY
    var liveIdx: Array[LongObjMap[LongSet]] = _        // per hasY child

    // the plan's projections, compiled against the dictionary
    var keyP: Proj = _                 // non-root
    var yP: Proj = _
    var linkUpP: Proj = _              // non-root, hasY
    var resP: Proj = _                 // result -> yAttrs
    var childKeyP: Array[Proj] = _
    var childKeyFromYP: Array[Proj] = _
    var liveKeyP: Array[Proj] = _      // hasY
    // input nodes: the atom's filter (or null), the ids of the tuple being
    // updated, its handle and the wide keys its base tuples retain
    var filter: T => Boolean = _
    var ids: Array[Int] = _
    var tupP: Proj = _
    var wideP: Array[Proj] = _
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
    n.yP = proj(arity, n.yIdx)
    n.resP = proj(y.length, n.yOut)
    if (!n.isRoot) {
      n.keyP = proj(arity, n.keyIdx)
      if (n.hasY) n.linkUpP = proj(yArity, n.linkUpIdx)
    }
    n.childKeyP = n.childKeyIdx.map(proj(arity, _))
    n.childKeyFromYP = n.childKeyFromY.map(proj(yArity, _))
    if (n.hasY) n.liveKeyP = n.liveKeyIdx.map(proj(yArity, _))
  }
  for (n <- nodes; c <- n.enumKids) {
    require(c.hasY, s"enum child ${c.attrs} carries no output attribute (unsupported tree)")
    require(n.childKeyFromY(c.childPos) != null,
      s"join key into output-bearing child ${c.attrs} is not all-output — tree not enumerable")
  }

  /** Internal non-root output-carrying nodes (live views live here),
    * top-down order for deletion maintenance.
    */
  private val liveNodes: Array[Node] =
    nodes.filter(n => !n.isRoot && !n.isLeaf && n.hasY).sortBy(_.depth)

  // -------------------------------------------------------------- deltas

  private final class NodeDelta {
    val vsTuples = new LongBuf
    val projs = new LongBuf
    val projSet = new LongSet
    def clear(): Unit = { vsTuples.clear(); projs.clear(); projSet.clear() }
  }
  private val nodeDeltas: Array[NodeDelta] = Array.fill(nodes.length)(new NodeDelta)
  private val liveBuf: Array[LongSet] = Array.fill(nodes.length)(new LongSet)

  private var ops: Long = 0L
  override def workOps: Long = ops

  /** Ids in use in the engine's dictionary: values and wide keys. */
  def dictEntries: Long = dict.entries

  // --------------------------------------------------------- propagation

  /** Insert-side S-Update/P-Update cascade: `tt` just entered `V_s(e)`. */
  private def enterVs(e: Node, tt: Long): Unit = {
    val d = nodeDeltas(e.id)
    d.vsTuples += tt
    ops += 1
    val k = if (e.isRoot) 0L else e.keyP(tt)
    if (e.hasY) {
      val yp = e.yP(tt)
      if (e.projCnt.addTo(yp, 1) == 1) {
        d.projs += yp; d.projSet.add(yp)
        if (e.isRoot) rootLiveAdd(yp)
      }
      if (e.mixed && !e.isRoot) e.projByKey.getOrElseUpdate(k, newCounts).addTo(yp, 1)
    }
    if (!e.isRoot) {
      e.vsByKey.getOrElseUpdate(k, newSet).add(tt)
      if (e.vp.addTo(k, 1) == 1) pUpdateInsert(e.parent, e, k)
    }
  }

  /** Insert-side P-Update (Algorithm 3): key `k` entered `V_p(child)`. */
  private def pUpdateInsert(p: Node, child: Node, k: Long): Unit = {
    val full = p.children.length
    if (p.isGen) {
      ops += 1
      if (p.tuples.addTo(k, 1) == full) enterVs(p, k)
    } else {
      val set = p.childIdx(child.childPos).get(k)
      if (set != null) {
        var s = set.nextSlot(0)
        while (s >= 0) {
          val tt = set.keyAt(s)
          ops += 1
          if (p.tuples.addTo(tt, 1) == full) enterVs(p, tt)
          s = set.nextSlot(s + 1)
        }
      }
    }
  }

  private def processInsert(e0: Node, u: Upd, emit: T => Unit): Long = {
    if (lookupIds(e0, u) && e0.tuples.contains(e0.tupP.fromIds(e0.ids)))
      return 0L // ineffective under set semantics
    retain(e0, u)
    val ids = e0.ids
    val t0 = e0.tupP.fromIds(ids)
    clearBuffers(e0)
    // R-Update (Algorithm 4)
    var count = 0
    var i = 0
    while (i < e0.children.length) {
      val k = e0.childKeyP(i).fromIds(ids)
      e0.childIdx(i).getOrElseUpdate(k, newSet).add(t0)
      if (e0.children(i).vp.contains(k)) count += 1
      ops += 1
      i += 1
    }
    e0.tuples.put(t0, count)
    if (count == e0.children.length) enterVs(e0, t0)
    val n = enumerateDeltas(e0, emit)
    applyLiveInserts()
    n
  }

  /** Delete-side S-Update/P-Update cascade: `tt` just left `V_s(e)`. Counters
    * drop at once; `vsByKey` and `projByKey` keep `tt` until the delta has
    * been enumerated ([[dropLeftVs]]).
    */
  private def leaveVs(e: Node, tt: Long): Unit = {
    val d = nodeDeltas(e.id)
    d.vsTuples += tt
    if (e.hasY) {
      val yp = e.yP(tt)
      if (e.projCnt.addTo(yp, -1) == 0) {
        e.projCnt.remove(yp)
        d.projs += yp; d.projSet.add(yp)
        if (e.isRoot) rootLiveRemove(yp)
      }
    }
    if (!e.isRoot) {
      val k = e.keyP(tt)
      if (e.vp.addTo(k, -1) == 0) {
        e.vp.remove(k)
        pUpdateDelete(e.parent, e, k)
      }
    }
  }

  /** Delete-side P-Update (Algorithm 3): key `k` left `V_p(child)`. A parent
    * tuple leaves `V_s` if its counter was full; a generated tuple whose
    * counter reaches 0 is removed.
    */
  private def pUpdateDelete(p: Node, child: Node, k: Long): Unit = {
    val full = p.children.length
    if (p.isGen) {
      ops += 1
      val c = p.tuples.addTo(k, -1)
      if (c + 1 == full) leaveVs(p, k)
      if (c == 0) p.tuples.remove(k)
    } else {
      val set = p.childIdx(child.childPos).get(k)
      if (set != null) {
        var s = set.nextSlot(0)
        while (s >= 0) {
          val tt = set.keyAt(s)
          ops += 1
          if (p.tuples.addTo(tt, -1) + 1 == full) leaveVs(p, tt)
          s = set.nextSlot(s + 1)
        }
      }
    }
  }

  private def processDelete(e0: Node, u: Upd, emit: T => Unit): Long = {
    if (!lookupIds(e0, u)) return 0L // a value never seen: ineffective
    val ids = e0.ids
    val t0 = e0.tupP.fromIds(ids)
    val count = e0.tuples.get(t0, -1)
    if (count < 0) return 0L // ineffective under set semantics
    clearBuffers(e0)
    // R-Update (Algorithm 4)
    e0.tuples.remove(t0)
    var i = 0
    while (i < e0.children.length) {
      val k = e0.childKeyP(i).fromIds(ids)
      val set = e0.childIdx(i).get(k)
      if (set != null) {
        set.remove(t0)
        if (set.isEmpty) e0.childIdx(i).remove(k)
      }
      ops += 1
      i += 1
    }
    if (count == e0.children.length) leaveVs(e0, t0)
    val n = enumerateDeltas(e0, emit) // the leaving tuples are still indexed
    dropLeftVs(e0)
    applyLiveDeletes()
    release(e0) // the deleted tuple's values and wide keys, now unused
    n
  }

  /** Remove the tuples that left `V_s` along `e0`'s path from the
    * enumeration indexes `vsByKey` and `projByKey` (the root keeps neither).
    */
  private def dropLeftVs(e0: Node): Unit = {
    val path = e0.path
    var i = 0
    while (i < path.length - 1) {
      val e = path(i)
      val left = nodeDeltas(e.id).vsTuples
      var j = 0
      while (j < left.length) {
        val tt = left(j)
        val k = e.keyP(tt)
        val set = e.vsByKey.get(k)
        set.remove(tt)
        if (set.isEmpty) e.vsByKey.remove(k)
        if (e.hasY && e.mixed) {
          val yp = e.yP(tt)
          val m = e.projByKey.get(k)
          if (m.addTo(yp, -1) == 0) {
            m.remove(yp)
            if (m.isEmpty) e.projByKey.remove(k)
          }
        }
        j += 1
      }
      i += 1
    }
  }

  override def processUpdate(u: Upd)(emit: T => Unit): Long = {
    val node = plan.atomNode(u.rel)
    if (node.filter != null && !node.filter(u.t)) return 0L // §7.2 selection
    if (u.isInsert) processInsert(node, u, emit) else processDelete(node, u, emit)
  }

  private def clearBuffers(e0: Node): Unit = {
    val path = e0.path
    var i = 0
    while (i < path.length) { nodeDeltas(path(i).id).clear(); i += 1 }
    i = 0
    while (i < liveNodes.length) { liveBuf(liveNodes(i).id).clear(); i += 1 }
  }

  // ------------------------------------------------------------- encoding

  /** Look up the ids of `u`'s values into `e0.ids`; false if a value has
    * none (then `u`'s tuple is in no view).
    */
  private def lookupIds(e0: Node, u: Upd): Boolean = {
    val ids = e0.ids
    var found = true
    var i = 0
    while (i < ids.length) {
      ids(i) = dict.lookup(u.t(i), u.rel)
      if (ids(i) < 0) found = false
      i += 1
    }
    found
  }

  /** A new base tuple retains its values, creating the missing ones in
    * `e0.ids`, and the wide keys the plan lists for its atom.
    */
  private def retain(e0: Node, u: Upd): Unit = {
    val ids = e0.ids
    var i = 0
    while (i < ids.length) {
      if (ids(i) >= 0) dict.retain(ids(i)) else ids(i) = dict.acquire(u.t(i), u.rel)
      i += 1
    }
    i = 0
    while (i < e0.wideP.length) { dict.wideAcquire(e0.wideP(i).gather(ids)); i += 1 }
  }

  /** Release what the deleted base tuple in `e0.ids` retained. */
  private def release(e0: Node): Unit = {
    val ids = e0.ids
    var i = 0
    while (i < e0.wideP.length) { dict.release(dict.wideLookup(e0.wideP(i).gather(ids))); i += 1 }
    i = 0
    while (i < ids.length) { dict.release(ids(i)); i += 1 }
  }

  // --------------------------------------------------------- enumeration

  private val slots = new Array[Int](y.length) // ids of the result being built

  @inline private def writeProj(e: Node, proj: Long): Unit =
    dict.unpack(proj, e.yOut.length, slots, e.yOut)

  /** The result in `slots`, decoded. */
  private def result(): T = {
    val a = new Array[Any](slots.length)
    var i = 0
    while (i < a.length) { a(i) = dict.decode(slots(i)); i += 1 }
    ArraySeq.unsafeWrapArray(a)
  }

  /** FullEnum (Algorithm 5) descent below node `c` given the join key from
    * its parent. Mixed nodes yield their counted distinct output projections
    * (and keep descending — the enumerability condition guarantees their
    * child keys are output attributes, hence determined by the projection);
    * all-output nodes iterate V_s tuples directly. Returns false if the
    * callback stopped the enumeration.
    */
  private def enumFromKey(c: Node, key: Long, cont: () => Boolean): Boolean = {
    // all-output: a V_s tuple IS its projection
    val t: LongTable = if (c.mixed) c.projByKey.get(key) else c.vsByKey.get(key)
    if (t != null) {
      var s = t.nextSlot(0)
      while (s >= 0) {
        val yp = t.keyAt(s)
        writeProj(c, yp)
        if (!descendY(c, yp, -1, cont)) return false
        s = t.nextSlot(s + 1)
      }
    }
    true
  }

  /** Nested-loop descent into `e`'s enumeration children from an output
    * projection of `e` (skipping the child at `skipPos`, used by delta
    * enumeration's subtree partition).
    */
  private def descendY(e: Node, yp: Long, skipPos: Int, cont: () => Boolean): Boolean = {
    def go(ki: Int): Boolean = {
      if (ki == e.enumKids.length) cont()
      else {
        val c = e.enumKids(ki)
        if (c.childPos == skipPos) go(ki + 1)
        else enumFromKey(c, e.childKeyFromYP(c.childPos)(yp), () => go(ki + 1))
      }
    }
    go(0)
  }

  override def enumerateFull(cb: T => Boolean): Unit = {
    var go = true
    val emitRes = () => {
      val res = result()
      if (cq.resultFilter.forall(_(res))) go = cb(res)
      go
    }
    val roots = root.projCnt
    var s = roots.nextSlot(0)
    while (go && s >= 0) {
      val p = roots.keyAt(s)
      writeProj(root, p)
      descendY(root, p, -1, emitRes)
      s = roots.nextSlot(s + 1)
    }
  }

  // ----------------------------------------------------- delta enumeration

  /** Enumerate `ΔQ(D, t)` from the recorded per-node view deltas: root
    * projections are witnesses outright (Corollary 5.2); a new/dead
    * projection at a non-root node is a witness iff it joins the parent's
    * live view, excluding projections changed by this very update (Def 5.6).
    */
  private def enumerateDeltas(e0: Node, emit: T => Unit): Long = {
    val path = e0.path
    var count = 0L
    val emitRes = () => {
      val res = result()
      if (cq.resultFilter.forall(_(res))) {
        emit(res); count += 1
        var li = 0
        while (li < liveNodes.length) {
          val e = liveNodes(li)
          liveBuf(e.id).add(e.resP.fromIds(slots))
          li += 1
        }
      }
      true
    }
    var i = 0
    while (i < path.length) {
      val e = path(i)
      if (e.hasY) {
        val d = nodeDeltas(e.id)
        var pi = 0
        while (pi < d.projs.length) {
          val p = d.projs(pi)
          if (e.isRoot) {
            writeProj(e, p)
            descendY(e, p, -1, emitRes)
          } else if (witnessJoinsParentLive(e, p)) {
            enumWitness(path, i, p, emitRes)
          }
          pi += 1
        }
      }
      i += 1
    }
    count
  }

  private def witnessJoinsParentLive(e: Node, p: Long): Boolean = {
    val par = e.parent
    val set = par.liveIdx(e.childPos).get(e.linkUpP(p))
    if (set == null) false
    else {
      val excl = nodeDeltas(par.id).projSet
      if (excl.isEmpty) set.nonEmpty
      else {
        var s = set.nextSlot(0)
        while (s >= 0 && excl.contains(set.keyAt(s))) s = set.nextSlot(s + 1)
        s >= 0
      }
    }
  }

  /** Algorithm 6 for one witness `p` at `path(i)`: join the witness with the
    * (pre-update) live views up the path, then FullEnum the disjoint
    * subtrees `T_{e_i}, T_{e_j} − T_{e_{j-1}}` and emit the combinations.
    */
  private def enumWitness(path: Array[Node], i: Int, p: Long, emitRes: () => Boolean): Unit = {
    val chosen = new Array[Long](path.length)
    chosen(i) = p
    writeProj(path(i), p)

    def parts(j: Int): Boolean = {
      if (j == path.length) emitRes()
      else {
        val e = path(j)
        val skip = if (j == i) -1 else path(j - 1).childPos
        descendY(e, chosen(j), skip, () => parts(j + 1))
      }
    }

    def sLevel(j: Int): Boolean = {
      if (j == path.length) parts(i)
      else {
        val e = path(j)
        val below = path(j - 1)
        val set = e.liveIdx(below.childPos).get(below.linkUpP(chosen(j - 1)))
        if (set == null) true
        else {
          val excl = nodeDeltas(e.id).projSet
          var go = true
          var s = set.nextSlot(0)
          while (go && s >= 0) {
            val l = set.keyAt(s)
            if (!excl.contains(l)) {
              chosen(j) = l
              writeProj(e, l)
              go = sLevel(j + 1)
            }
            s = set.nextSlot(s + 1)
          }
          go
        }
      }
    }

    sLevel(i + 1)
    ()
  }

  // ------------------------------------------------------------ live views

  private def rootLiveAdd(yp: Long): Unit = {
    var i = 0
    while (i < root.children.length) {
      if (root.liveIdx(i) != null)
        root.liveIdx(i).getOrElseUpdate(root.liveKeyP(i)(yp), newSet).add(yp)
      i += 1
    }
  }

  private def rootLiveRemove(yp: Long): Unit = {
    var i = 0
    while (i < root.children.length) {
      if (root.liveIdx(i) != null) unindexLive(root, i, yp)
      i += 1
    }
  }

  /** Remove live projection `p` of `e` from the index of its child `i`. */
  private def unindexLive(e: Node, i: Int, p: Long): Unit = {
    val link = e.liveKeyP(i)(p)
    val set = e.liveIdx(i).get(link)
    if (set != null) {
      set.remove(p)
      if (set.isEmpty) e.liveIdx(i).remove(link)
    }
  }

  /** Insertion: every enumerated delta result's projection becomes live
    * (Lemma 5.5 "only if" direction; buffered so the S-joins of the same
    * update see the pre-update live views).
    */
  private def applyLiveInserts(): Unit = {
    var li = 0
    while (li < liveNodes.length) {
      val e = liveNodes(li)
      val buf = liveBuf(e.id)
      var s = buf.nextSlot(0)
      while (s >= 0) {
        val p = buf.keyAt(s)
        if (e.live.add(p)) {
          var i = 0
          while (i < e.children.length) {
            if (e.liveIdx(i) != null)
              e.liveIdx(i).getOrElseUpdate(e.liveKeyP(i)(p), newSet).add(p)
            i += 1
          }
        }
        s = buf.nextSlot(s + 1)
      }
      li += 1
    }
  }

  /** Deletion: a touched projection stays live iff it is still in π_y V_s
    * and still joins the parent's live view (Lemma 5.5), checked top-down
    * so parents settle first.
    */
  private def applyLiveDeletes(): Unit = {
    var li = 0
    while (li < liveNodes.length) { // liveNodes is top-down
      val e = liveNodes(li)
      val buf = liveBuf(e.id)
      var s = buf.nextSlot(0)
      while (s >= 0) {
        val p = buf.keyAt(s)
        if (e.live.contains(p)) {
          val surviving = e.projCnt.contains(p) && {
            val set = e.parent.liveIdx(e.childPos).get(e.linkUpP(p))
            set != null && set.nonEmpty
          }
          if (!surviving) {
            e.live.remove(p)
            var i = 0
            while (i < e.children.length) {
              if (e.liveIdx(i) != null) unindexLive(e, i, p)
              i += 1
            }
          }
        }
        s = buf.nextSlot(s + 1)
      }
      li += 1
    }
  }

  // ------------------------------------------------------------- metrics

  private def setSizes(m: LongObjMap[_ <: LongTable]): Long = {
    var sum = 0L
    var s = m.nextSlot(0)
    while (s >= 0) { sum += m.valueAt(s).size; s = m.nextSlot(s + 1) }
    sum
  }

  override def spaceEntries: Long = {
    var s = 0L
    for (n <- nodes) {
      s += n.tuples.size + n.vp.size + n.projCnt.size + n.live.size
      s += setSizes(n.vsByKey) + setSizes(n.projByKey)
      if (n.childIdx != null) s += n.childIdx.iterator.map(setSizes).sum
      s += n.liveIdx.iterator.filter(_ != null).map(setSizes).sum
    }
    s
  }

  /** Tree height (relations per root-leaf path), for reports. */
  def planHeight: Int = treeSpec.height
}
