module gatherx
  implicit none
  integer :: nedge
  integer :: eptr(2, 2000)
  real*8 :: q(5, 700)
  real*8 :: wgt(2000)
  real*8 :: eflux(2000)
end module gatherx

subroutine gatherx_init()
  use gatherx
  implicit none
  integer :: e, m
  nedge = 2000
  do e = 1, 2000
    eptr(1, e) = 1 + mod(3 * e, 700)
    eptr(2, e) = 1 + mod(5 * e + 11, 700)
    wgt(e) = 0.5d0 + mod(e, 9) * 0.05d0
    eflux(e) = 0.0d0
  end do
  do e = 1, 700
    do m = 1, 5
      q(m, e) = 1.0d0 + 0.001d0 * e + 0.1d0 * m
    end do
  end do
end subroutine gatherx_init

subroutine gather_sweep()
  use gatherx
  implicit none
  integer :: e, m, n1, n2
  real*8 :: acc
!$omp parallel do private(e, m, n1, n2, acc)
  do e = 1, nedge
    n1 = eptr(1, e)
    n2 = eptr(2, e)
    acc = 0.0d0
    do m = 1, 5
      acc = acc + abs(wgt(e) * (q(m, n2) - q(m, n1)))
    end do
    eflux(e) = acc
  end do
!$omp end parallel do
end subroutine gather_sweep
