"""Brent's root finder and QUADPACK's QAGS, ported to plain Python.

Both follow SciPy 1.17.1 float operation for float operation, so they
return exactly what ``scipy.optimize.brentq`` and ``scipy.integrate.quad``
return for the same arguments:

- ``brentq`` is SciPy's ``brentq.c``, Brent's method as in R. P. Brent,
  *Algorithms for Minimization without Derivatives* (1973), ch. 4;
- ``quad`` is QAGS from R. Piessens, E. de Doncker-Kapenga, C. W. Uberhuber
  and D. K. Kahaner, *QUADPACK* (Springer, 1983): ``dqagse`` with the
  21-point Gauss-Kronrod rule ``dqk21``, the error-list sort ``dqpsrt`` and
  Wynn's epsilon extrapolation ``dqelg``. It takes the integrand as a rule
  integrand, which gives the 21 values of one interval in one call (see
  ``rule_nodes``); a scalar function f is lifted as
  ``lambda c, h: [f(x) for x in rule_nodes(c, h)]``.

QUADPACK's arrays keep their 1-based indices: slot 0 of every list is
unused, so each statement reads as in the reference.
"""

from __future__ import annotations

import sys

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)


def _evaluate(f, x):
    """f(x) as a float; a NaN value stops the search, as in SciPy."""
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a, b, xtol=2e-12, rtol=4 * _EPMACH, maxiter=100):
    """A root of ``f`` in the bracket [a, b] by Brent's method.

    The result x0 satisfies |x0 - x| <= xtol + rtol |x0| for the exact root
    x; ``xtol`` must be positive and ``rtol`` at least 4 machine epsilons,
    as in SciPy. Raises ValueError for a bracket without a sign change or a
    NaN function value, and RuntimeError after ``maxiter`` iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre = _evaluate(f, xpre)
    fcur = _evaluate(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gives an infinite or NaN step here, which always bisects
                stry = float("nan")
            lim = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < lim else lim):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _evaluate(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# 21-point Kronrod rule on (-1, 1): abscissae XGK1..XGK10 (the even ones are
# the 10-point Gauss nodes, the centre is 0), Kronrod weights WGK1..WGK11 and
# Gauss weights WG1..WG5 of XGK2, XGK4, ..., XGK10 (L. W. Fullerton, 1981).
WG1 = 0.066671344308688137593568809893332
WG2 = 0.149451349150580593145776339657697
WG3 = 0.219086362515982043995534934228163
WG4 = 0.269266719309996355091226921569469
WG5 = 0.295524224714752870173892994651338

XGK1 = 0.995657163025808080735527280689003
XGK2 = 0.973906528517171720077964012084452
XGK3 = 0.930157491355708226001207180059508
XGK4 = 0.865063366688984510732096688423493
XGK5 = 0.780817726586416897063717578345042
XGK6 = 0.679409568299024406234327365114874
XGK7 = 0.562757134668604683339000099272694
XGK8 = 0.433395394129247190799265943165784
XGK9 = 0.294392862701460198131126603103866
XGK10 = 0.148874338981631210884826001129720

WGK1 = 0.011694638867371874278064396062192
WGK2 = 0.032558162307964727478818972459390
WGK3 = 0.054755896574351996031381300244580
WGK4 = 0.075039674810919952767043140916190
WGK5 = 0.093125454583697605535065465083366
WGK6 = 0.109387158802297641899210590325805
WGK7 = 0.123491976262065851077958109831074
WGK8 = 0.134709217311473325928054001771707
WGK9 = 0.142775938577060080797094273138717
WGK10 = 0.147739104901338491374841515972068
WGK11 = 0.149445554002916905664936468389821

_ERR_FLOOR = _UFLOW / (50.0 * _EPMACH)
_EPS50 = _EPMACH * 50.0


#: the abscissae in the order of a rule integrand's values: the Gauss nodes
#: XGK2..XGK10, then the Kronrod nodes XGK1..XGK9
_ABSCISSAE = (XGK2, XGK4, XGK6, XGK8, XGK10, XGK1, XGK3, XGK5, XGK7, XGK9)


def rule_nodes(centr, hlgth):
    """The 21 nodes of the rule on the interval of centre ``centr`` and
    half-length ``hlgth``, in the order ``quad`` needs a rule integrand's
    values: the centre, then centr - hlgth*x and centr + hlgth*x for each
    abscissa x of ``_ABSCISSAE``, computed as dqk21 computes them."""
    nodes = [centr]
    for x in _ABSCISSAE:
        absc = hlgth * x
        nodes.append(centr - absc)
        nodes.append(centr + absc)
    return nodes


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b].

    ``f(centr, hlgth)`` gives the integrand's values at the 21
    ``rule_nodes(centr, hlgth)`` in one call. The loops of the reference
    are unrolled; the operations and their order are unchanged (Gauss nodes
    XGK2..XGK10 first, then XGK1..XGK9).
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc, u2, v2, u4, v4, u6, v6, u8, v8, u10, v10, u1, v1, u3, v3, u5, v5, u7, v7, u9, v9 = f(
        centr, hlgth
    )

    resk = WGK11 * fc
    resabs = abs(resk)

    fsum = u2 + v2
    resg = WG1 * fsum  # starts from 0.0; a signed zero here cannot reach abserr
    resk = resk + WGK2 * fsum
    resabs = resabs + WGK2 * (abs(u2) + abs(v2))
    fsum = u4 + v4
    resg = resg + WG2 * fsum
    resk = resk + WGK4 * fsum
    resabs = resabs + WGK4 * (abs(u4) + abs(v4))
    fsum = u6 + v6
    resg = resg + WG3 * fsum
    resk = resk + WGK6 * fsum
    resabs = resabs + WGK6 * (abs(u6) + abs(v6))
    fsum = u8 + v8
    resg = resg + WG4 * fsum
    resk = resk + WGK8 * fsum
    resabs = resabs + WGK8 * (abs(u8) + abs(v8))
    fsum = u10 + v10
    resg = resg + WG5 * fsum
    resk = resk + WGK10 * fsum
    resabs = resabs + WGK10 * (abs(u10) + abs(v10))

    resk = resk + WGK1 * (u1 + v1)
    resabs = resabs + WGK1 * (abs(u1) + abs(v1))
    resk = resk + WGK3 * (u3 + v3)
    resabs = resabs + WGK3 * (abs(u3) + abs(v3))
    resk = resk + WGK5 * (u5 + v5)
    resabs = resabs + WGK5 * (abs(u5) + abs(v5))
    resk = resk + WGK7 * (u7 + v7)
    resabs = resabs + WGK7 * (abs(u7) + abs(v7))
    resk = resk + WGK9 * (u9 + v9)
    resabs = resabs + WGK9 * (abs(u9) + abs(v9))

    reskh = resk * 0.5
    resasc = WGK11 * abs(fc - reskh)
    resasc = resasc + WGK1 * (abs(u1 - reskh) + abs(v1 - reskh))
    resasc = resasc + WGK2 * (abs(u2 - reskh) + abs(v2 - reskh))
    resasc = resasc + WGK3 * (abs(u3 - reskh) + abs(v3 - reskh))
    resasc = resasc + WGK4 * (abs(u4 - reskh) + abs(v4 - reskh))
    resasc = resasc + WGK5 * (abs(u5 - reskh) + abs(v5 - reskh))
    resasc = resasc + WGK6 * (abs(u6 - reskh) + abs(v6 - reskh))
    resasc = resasc + WGK7 * (abs(u7 - reskh) + abs(v7 - reskh))
    resasc = resasc + WGK8 * (abs(u8 - reskh) + abs(v8 - reskh))
    resasc = resasc + WGK9 * (abs(u9 - reskh) + abs(v9 - reskh))
    resasc = resasc + WGK10 * (abs(u10 - reskh) + abs(v10 - reskh))

    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5) without pow's overflow error: r**1.5 >= 1 iff r >= 1
        r = 200.0 * abserr / resasc
        abserr = resasc * (r**1.5 if r < 1.0 else 1.0)
    if resabs > _ERR_FLOOR:
        abserr = max(_EPS50 * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep ``iord`` sorted by descending error; returns the new
    (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1

        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax by traversing the list top-down
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                # insert errmin by traversing the list bottom-up
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


#: most elements the epsilon table holds before its upper diagonal is dropped
_LIMEXP = 50


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on ``epstab[1..n]``.

    Returns the new (n, result, abserr, nres); ``epstab`` and ``res3la``
    are updated in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two elements very close to each other: omit part of the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        # irregular behaviour in the table: omit part of it
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res

    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """(integral of f over [a, b], error estimate) by QAGS, for a <= b.

    ``f`` is a rule integrand: ``f(centr, hlgth)`` returns the values of
    the function at the 21 ``rule_nodes(centr, hlgth)`` of one interval, as
    a sequence of floats. The other arguments mean what they mean to
    ``scipy.integrate.quad``, and for a function lifted that way the pair
    is the one SciPy returns for the function itself. Where QUADPACK sets a nonzero ``ier``
    (subdivision limit, roundoff, a bad point, slow extrapolation), the
    pair is returned all the same; callers judge the error estimate.
    ``epsabs`` must be positive or ``epsrel`` above 50 machine epsilons.
    """
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr

    rlist2 = [0.0] * (_LIMEXP + 5)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    sum_up = False

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve previous approximations to integral and error
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, subdivision limit, bad integrand behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            sum_up = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease the error over the larger intervals (erlarg)
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # choose between the extrapolated result and the sum over the intervals;
    # QUADPACK's closing divergence test sets only ier, which is not returned
    if not sum_up:
        if abserr == _OFLOW:
            sum_up = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if result != 0.0 and area != 0.0:
                sum_up = abserr / abs(result) > errsum / abs(area)
            else:
                sum_up = abserr > errsum
    if sum_up:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr
