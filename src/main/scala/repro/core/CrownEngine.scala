package repro.core

import repro.core.Tup.T
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

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
  */
final class CrownEngine(val cq: CQ, val treeSpec: JTNode) extends IncrementalEngine {

  override def name: String = "CROWN"

  private val y: Vector[String] = cq.output
  require(y.nonEmpty, "CROWN needs at least one output attribute")

  // ---------------------------------------------------------------- nodes

  private final class TupState(var count: Int)

  private final class Node(id: Int, attrs: Vector[String], atom: Option[Atom], ySet: Set[String])
      extends PlanNode[Node](id, attrs, atom, ySet) {
    val tuples = mutable.HashMap.empty[T, TupState]
    var childIdx: Array[mutable.HashMap[T, mutable.HashSet[T]]] = _ // input nodes
    val vp = mutable.HashMap.empty[T, Int]                          // non-root
    val vsByKey = mutable.HashMap.empty[T, mutable.HashSet[T]]      // non-root
    val projCnt = mutable.HashMap.empty[T, Int]                     // hasY
    val projByKey = mutable.HashMap.empty[T, mutable.HashMap[T, Int]] // mixed, non-root, hasY
    val live = mutable.HashSet.empty[T]                             // internal, non-root, hasY
    var liveIdx: Array[mutable.HashMap[T, mutable.HashSet[T]]] = _  // per hasY child
  }

  // ---------------------------------------------------------- compilation

  private val plan = new Plan[Node](cq, treeSpec)(new Node(_, _, _, _))
  private val nodes: Array[Node] = plan.nodes
  private val root: Node = plan.root
  require(root.hasY, s"root of $treeSpec carries no output attribute")

  for (n <- nodes) {
    if (!n.isGen) n.childIdx = n.children.map(_ => mutable.HashMap.empty[T, mutable.HashSet[T]])
    n.liveIdx = n.children.map(c =>
      if (n.hasY && c.hasY) mutable.HashMap.empty[T, mutable.HashSet[T]] else null)
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
    val vsTuples = mutable.ArrayBuffer.empty[T]
    val projs = mutable.ArrayBuffer.empty[T]
    val projSet = mutable.HashSet.empty[T]
    def clear(): Unit = { vsTuples.clear(); projs.clear(); projSet.clear() }
  }
  private val nodeDeltas: Array[NodeDelta] = Array.fill(nodes.length)(new NodeDelta)
  private val liveBuf: Array[mutable.HashSet[T]] =
    Array.fill(nodes.length)(mutable.HashSet.empty[T])

  private var ops: Long = 0L
  override def workOps: Long = ops

  // --------------------------------------------------------- propagation

  /** Insert-side S-Update/P-Update cascade: `tt` just entered `V_s(e)`. */
  private def enterVs(e: Node, tt: T): Unit = {
    val d = nodeDeltas(e.id)
    d.vsTuples += tt
    ops += 1
    if (e.hasY) {
      val yp = Tup.proj(tt, e.yIdx)
      val pc = e.projCnt.getOrElse(yp, 0)
      e.projCnt(yp) = pc + 1
      if (pc == 0) {
        d.projs += yp; d.projSet += yp
        if (e.isRoot) rootLiveAdd(yp)
      }
      if (e.mixed && !e.isRoot) {
        val k = Tup.proj(tt, e.keyIdx)
        val m = e.projByKey.getOrElseUpdate(k, mutable.HashMap.empty)
        m(yp) = m.getOrElse(yp, 0) + 1
      }
    }
    if (!e.isRoot) {
      val k = Tup.proj(tt, e.keyIdx)
      e.vsByKey.getOrElseUpdate(k, mutable.HashSet.empty) += tt
      val old = e.vp.getOrElse(k, 0)
      e.vp(k) = old + 1
      if (old == 0) pUpdateInsert(e.parent, e, k)
    }
  }

  /** Insert-side P-Update (Algorithm 3): key `k` entered `V_p(child)`. */
  private def pUpdateInsert(p: Node, child: Node, k: T): Unit = {
    if (p.isGen) {
      val st = p.tuples.getOrElseUpdate(k, new TupState(0))
      st.count += 1; ops += 1
      if (st.count == p.children.length) enterVs(p, k)
    } else {
      p.childIdx(child.childPos).get(k) match {
        case None => ()
        case Some(set) =>
          for (tt <- set) {
            val st = p.tuples(tt)
            st.count += 1; ops += 1
            if (st.count == p.children.length) enterVs(p, tt)
          }
      }
    }
  }

  private def processInsert(e0: Node, t0: T, emit: T => Unit): Long = {
    if (e0.tuples.contains(t0)) return 0L // ineffective under set semantics
    clearBuffers(e0)
    // R-Update (Algorithm 4)
    val st = new TupState(0)
    var i = 0
    while (i < e0.children.length) {
      val c = e0.children(i)
      val k = Tup.proj(t0, e0.childKeyIdx(i))
      e0.childIdx(i).getOrElseUpdate(k, mutable.HashSet.empty) += t0
      if (c.vp.contains(k)) st.count += 1
      ops += 1
      i += 1
    }
    e0.tuples(t0) = st
    if (st.count == e0.children.length) enterVs(e0, t0)
    val n = enumerateDeltas(e0, emit)
    applyLiveInserts()
    n
  }

  /** Delete-side S-Update/P-Update cascade: `tt` just left `V_s(e)`. Counters
    * drop at once; `vsByKey` and `projByKey` keep `tt` until the delta has
    * been enumerated ([[dropLeftVs]]).
    */
  private def leaveVs(e: Node, tt: T): Unit = {
    val d = nodeDeltas(e.id)
    d.vsTuples += tt
    if (e.hasY) {
      val yp = Tup.proj(tt, e.yIdx)
      val pc = e.projCnt(yp)
      if (pc == 1) {
        e.projCnt.remove(yp)
        d.projs += yp; d.projSet += yp
        if (e.isRoot) rootLiveRemove(yp)
      } else e.projCnt(yp) = pc - 1
    }
    if (!e.isRoot) {
      val k = Tup.proj(tt, e.keyIdx)
      val old = e.vp(k)
      if (old == 1) {
        e.vp.remove(k)
        pUpdateDelete(e.parent, e, k)
      } else e.vp(k) = old - 1
    }
  }

  /** Delete-side P-Update (Algorithm 3): key `k` left `V_p(child)`. A parent
    * tuple leaves `V_s` if its counter was full; a generated tuple whose
    * counter reaches 0 is removed.
    */
  private def pUpdateDelete(p: Node, child: Node, k: T): Unit = {
    if (p.isGen) {
      val st = p.tuples(k)
      if (st.count == p.children.length) leaveVs(p, k)
      st.count -= 1; ops += 1
      if (st.count == 0) p.tuples.remove(k)
    } else {
      p.childIdx(child.childPos).get(k) match {
        case None => ()
        case Some(set) =>
          for (tt <- set) {
            val st = p.tuples(tt)
            if (st.count == p.children.length) leaveVs(p, tt)
            st.count -= 1; ops += 1
          }
      }
    }
  }

  private def processDelete(e0: Node, t0: T, emit: T => Unit): Long = {
    val st = e0.tuples.getOrElse(t0, null)
    if (st == null) return 0L // ineffective under set semantics
    clearBuffers(e0)
    // R-Update (Algorithm 4)
    e0.tuples.remove(t0)
    var i = 0
    while (i < e0.children.length) {
      val k = Tup.proj(t0, e0.childKeyIdx(i))
      e0.childIdx(i).get(k).foreach { set =>
        set -= t0
        if (set.isEmpty) e0.childIdx(i).remove(k)
      }
      ops += 1
      i += 1
    }
    if (st.count == e0.children.length) leaveVs(e0, t0)
    val n = enumerateDeltas(e0, emit) // the leaving tuples are still indexed
    dropLeftVs(e0)
    applyLiveDeletes()
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
        val k = Tup.proj(tt, e.keyIdx)
        val set = e.vsByKey(k)
        set -= tt
        if (set.isEmpty) e.vsByKey.remove(k)
        if (e.hasY && e.mixed) {
          val yp = Tup.proj(tt, e.yIdx)
          val m = e.projByKey(k)
          val c = m(yp)
          if (c == 1) { m.remove(yp); if (m.isEmpty) e.projByKey.remove(k) }
          else m(yp) = c - 1
        }
        j += 1
      }
      i += 1
    }
  }

  override def processUpdate(u: Upd)(emit: T => Unit): Long = {
    val node = plan.atomNode(u.rel)
    if (cq.atomFilters.get(u.rel).exists(f => !f(u.t))) return 0L // §7.2 selection
    if (u.isInsert) processInsert(node, u.t, emit) else processDelete(node, u.t, emit)
  }

  private def clearBuffers(e0: Node): Unit = {
    for (n <- e0.path) nodeDeltas(n.id).clear()
    liveNodes.foreach(e => liveBuf(e.id).clear())
  }

  // --------------------------------------------------------- enumeration

  private val slots = new Array[Any](y.length)

  @inline private def writeProj(e: Node, proj: T): Unit = {
    var i = 0
    while (i < e.yOut.length) { slots(e.yOut(i)) = proj(i); i += 1 }
  }

  /** FullEnum (Algorithm 5) descent below node `c` given the join key from
    * its parent. Mixed nodes yield their counted distinct output projections
    * (and keep descending — the enumerability condition guarantees their
    * child keys are output attributes, hence determined by the projection);
    * all-output nodes iterate V_s tuples directly. Returns false if the
    * callback stopped the enumeration.
    */
  private def enumFromKey(c: Node, key: T, cont: () => Boolean): Boolean = {
    if (c.mixed) {
      c.projByKey.get(key) match {
        case None => true
        case Some(m) =>
          val it = m.keysIterator
          while (it.hasNext) {
            val yp = it.next()
            writeProj(c, yp)
            if (!descendY(c, yp, -1, cont)) return false
          }
          true
      }
    } else {
      c.vsByKey.get(key) match {
        case None => true
        case Some(set) =>
          val it = set.iterator
          while (it.hasNext) {
            val tt = it.next() // all-output: the tuple IS its projection
            writeProj(c, tt)
            if (!descendY(c, tt, -1, cont)) return false
          }
          true
      }
    }
  }

  /** Nested-loop descent into `e`'s enumeration children from an output
    * projection of `e` (skipping the child at `skipPos`, used by delta
    * enumeration's subtree partition).
    */
  private def descendY(e: Node, yp: T, skipPos: Int, cont: () => Boolean): Boolean = {
    def go(ki: Int): Boolean = {
      if (ki == e.enumKids.length) cont()
      else {
        val c = e.enumKids(ki)
        if (c.childPos == skipPos) go(ki + 1)
        else enumFromKey(c, Tup.proj(yp, e.childKeyFromY(c.childPos)), () => go(ki + 1))
      }
    }
    go(0)
  }

  override def enumerateFull(cb: T => Boolean): Unit = {
    var go = true
    val emitRes = () => {
      val res = ArraySeq.unsafeWrapArray(slots.clone()): T
      if (cq.resultFilter.forall(_(res))) go = cb(res)
      go
    }
    val it = root.projCnt.keysIterator
    while (go && it.hasNext) {
      val p = it.next()
      writeProj(root, p)
      descendY(root, p, -1, emitRes)
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
      val res = ArraySeq.unsafeWrapArray(slots.clone()): T
      if (cq.resultFilter.forall(_(res))) {
        emit(res); count += 1
        var li = 0
        while (li < liveNodes.length) {
          val e = liveNodes(li)
          liveBuf(e.id) += Tup.proj(res, e.yOut)
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

  private def witnessJoinsParentLive(e: Node, p: T): Boolean = {
    val par = e.parent
    val link = Tup.proj(p, e.linkUpIdx)
    par.liveIdx(e.childPos).get(link) match {
      case None => false
      case Some(set) =>
        val excl = nodeDeltas(par.id).projSet
        if (excl.isEmpty) set.nonEmpty else set.exists(m => !excl.contains(m))
    }
  }

  /** Algorithm 6 for one witness `p` at `path(i)`: join the witness with the
    * (pre-update) live views up the path, then FullEnum the disjoint
    * subtrees `T_{e_i}, T_{e_j} − T_{e_{j-1}}` and emit the combinations.
    */
  private def enumWitness(path: Array[Node], i: Int, p: T, emitRes: () => Boolean): Unit = {
    val chosen = new Array[T](path.length)
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
        val link = Tup.proj(chosen(j - 1), below.linkUpIdx)
        e.liveIdx(below.childPos).get(link) match {
          case None => true
          case Some(set) =>
            val excl = nodeDeltas(e.id).projSet
            val it = set.iterator
            var go = true
            while (go && it.hasNext) {
              val l = it.next()
              if (!excl.contains(l)) {
                chosen(j) = l
                writeProj(e, l)
                go = sLevel(j + 1)
              }
            }
            go
        }
      }
    }

    sLevel(i + 1)
    ()
  }

  // ------------------------------------------------------------ live views

  private def rootLiveAdd(yp: T): Unit = {
    var i = 0
    while (i < root.children.length) {
      if (root.liveIdx(i) != null)
        root.liveIdx(i).getOrElseUpdate(Tup.proj(yp, root.liveKeyIdx(i)),
          mutable.HashSet.empty) += yp
      i += 1
    }
  }

  private def rootLiveRemove(yp: T): Unit = {
    var i = 0
    while (i < root.children.length) {
      if (root.liveIdx(i) != null) {
        val link = Tup.proj(yp, root.liveKeyIdx(i))
        root.liveIdx(i).get(link).foreach { set =>
          set -= yp
          if (set.isEmpty) root.liveIdx(i).remove(link)
        }
      }
      i += 1
    }
  }

  /** Insertion: every enumerated delta result's projection becomes live
    * (Lemma 5.5 "only if" direction; buffered so the S-joins of the same
    * update see the pre-update live views).
    */
  private def applyLiveInserts(): Unit = {
    for (e <- liveNodes; p <- liveBuf(e.id)) {
      if (e.live.add(p)) {
        var i = 0
        while (i < e.children.length) {
          if (e.liveIdx(i) != null)
            e.liveIdx(i).getOrElseUpdate(Tup.proj(p, e.liveKeyIdx(i)),
              mutable.HashSet.empty) += p
          i += 1
        }
      }
    }
  }

  /** Deletion: a touched projection stays live iff it is still in π_y V_s
    * and still joins the parent's live view (Lemma 5.5), checked top-down
    * so parents settle first.
    */
  private def applyLiveDeletes(): Unit = {
    for (e <- liveNodes; p <- liveBuf(e.id)) { // liveNodes is top-down
      if (e.live.contains(p)) {
        val surviving = e.projCnt.contains(p) && {
          val link = Tup.proj(p, e.linkUpIdx)
          e.parent.liveIdx(e.childPos).get(link).exists(_.nonEmpty)
        }
        if (!surviving) {
          e.live.remove(p)
          var i = 0
          while (i < e.children.length) {
            if (e.liveIdx(i) != null) {
              val link = Tup.proj(p, e.liveKeyIdx(i))
              e.liveIdx(i).get(link).foreach { set =>
                set -= p
                if (set.isEmpty) e.liveIdx(i).remove(link)
              }
            }
            i += 1
          }
        }
      }
    }
  }

  // ------------------------------------------------------------- metrics

  override def spaceEntries: Long = {
    var s = 0L
    for (n <- nodes) {
      s += n.tuples.size + n.vp.size + n.projCnt.size + n.live.size
      s += n.vsByKey.valuesIterator.map(_.size.toLong).sum
      if (n.childIdx != null) s += n.childIdx.iterator.map(_.valuesIterator.map(_.size.toLong).sum).sum
      s += n.projByKey.valuesIterator.map(_.size.toLong).sum
      if (n.liveIdx != null)
        s += n.liveIdx.iterator.filter(_ != null).map(_.valuesIterator.map(_.size.toLong).sum).sum
    }
    s
  }

  /** Tree height (relations per root-leaf path), for reports. */
  def planHeight: Int = treeSpec.height
}
